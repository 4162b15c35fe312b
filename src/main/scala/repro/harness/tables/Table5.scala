package repro.harness.tables

import org.apache.spark.sql.SparkSession
import repro.harness.{CompressionBench, MetricsRow}

/** Table 5 — average compression and decompression throughput (GB/s) per
  * method, plus the roofline quantities (§6.3) the GPU model is built on.
  */
object Table5 {

  final case class Result(rows: Seq[MetricsRow],
                          compGBps: Map[String, Double],
                          decompGBps: Map[String, Double],
                          text: String)

  def run(spark: SparkSession): Result = {
    val rows    = GridCache.metrics(spark)
    val methods = PaperNumbers.Methods
    val comp = methods.map(m =>
      m -> CompressionBench.arithmeticMean(rows.filter(_.codec == m).map(_.roundtrip.ctGBps))).toMap
    val decomp = methods.map(m =>
      m -> CompressionBench.arithmeticMean(rows.filter(_.codec == m).map(_.roundtrip.dtGBps))).toMap

    val header = "metric" +: methods
    val body = Seq(
      "avg comp (GB/s)"   +: methods.zipWithIndex.map { case (m, i) =>
        Render.vs(comp(m), Some(PaperNumbers.table5CompGBps(i))) },
      "avg decomp (GB/s)" +: methods.zipWithIndex.map { case (m, i) =>
        Render.vs(decomp(m), Some(PaperNumbers.table5DecompGBps(i))) },
    )
    val text =
      "Table 5: average (de)compression throughput (GB/s) -- measured(paper)\n" +
      "CPU methods: measured wall time on this JVM; GPU methods: roofline cost model.\n" +
      Render.table(header, body)
    Result(rows, comp, decomp, text)
  }
}
