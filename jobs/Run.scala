package jobs

import org.apache.spark.sql.SparkSession

import repro.harness.tables._

/** spark-submit entry point reproducing one of the paper's tables:
  * `jobs.Run <4|5|6|7|8|9|10|11>` prints table N and saves it as `tableN`
  * with [[Render.save]]. Tables 7 and 8 are two views of one thread sweep.
  * Spark runs locally, configured like the test harness (broadcast joins
  * off, modest shuffle partitions).
  */
object Run {
  private val tables: Map[String, SparkSession => String] = Map(
    "4"  -> (Table4.run(_).text),
    "5"  -> (Table5.run(_).text),
    "6"  -> (Table6.run(_).text),
    "7"  -> (Table7And8.run(_).table7Text),
    "8"  -> (Table7And8.run(_).table8Text),
    "9"  -> (Table9.run(_).text),
    "10" -> (Table10.run(_).text),
    "11" -> (Table11.run(_).text),
  )

  def main(args: Array[String]): Unit = {
    val known = tables.keys.toSeq.sortBy(_.toInt).mkString(", ")
    require(args.length == 1 && tables.contains(args(0)),
            s"usage: jobs.Run <table>, with table one of $known (got: ${args.mkString(" ")})")
    val n = args(0)
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(s"fcbench-table$n")
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", "false")
      .getOrCreate()
    try {
      val text = tables(n)(spark)
      println(text)
      Render.save(s"table$n", text)
    } finally spark.stop()
  }
}
