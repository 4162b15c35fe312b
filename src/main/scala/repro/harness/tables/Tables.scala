package repro.harness.tables

import org.apache.spark.sql.SparkSession
import repro.harness.{CompressionBench, MetricsRow}

/** Shared infrastructure for the table reproductions: a per-JVM cache of the
  * full benchmark grid at [[BenchConfig]]'s size (Tables 4, 5 and 6 aggregate
  * the same run, as in the paper) and text-rendering helpers that print
  * measured values next to the paper's.
  */
object GridCache {
  private var grid: Seq[MetricsRow] = null

  def metrics(spark: SparkSession): Seq[MetricsRow] = synchronized {
    if (grid == null)
      grid = CompressionBench.runGrid(spark, targetValues = BenchConfig.targetValues, iters = BenchConfig.iters)
    grid
  }
}

object Render {
  def fmt(v: Double): String =
    if (v.isNaN) "-"
    else if (v == 0) "0"
    else if (math.abs(v) >= 1000) f"$v%.0f"
    else if (math.abs(v) >= 100) f"$v%.1f"
    else if (math.abs(v) >= 10) f"$v%.2f"
    else f"$v%.3f"

  /** "measured(paper)" cell. */
  def vs(measured: Double, paper: Option[Double]): String =
    s"${fmt(measured)}(${paper.map(fmt).getOrElse("-")})"

  def table(header: Seq[String], rows: Seq[Seq[String]]): String = {
    val all    = header +: rows
    val widths = header.indices.map(i => all.map(_(i).length).max)
    def line(r: Seq[String]) =
      r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("  ")
    (line(header) +: line(header.map(h => "-" * h.length)) +: rows.map(line)).mkString("\n")
  }

  /** Persist a rendered table for EXPERIMENTS.md assembly. The bench
    * subproject's forked JVM runs with cwd `bench/`, the root project with
    * the repo root — anchor output at the repo root either way.
    */
  def save(name: String, text: String): Unit = {
    val cwd  = new java.io.File(sys.props("user.dir")).getCanonicalFile
    val base = if (cwd.getName == "bench") cwd.getParentFile else cwd
    val dir  = new java.io.File(base, "bench/output")
    dir.mkdirs()
    val w = new java.io.PrintWriter(new java.io.File(dir, s"$name.txt"))
    try w.println(text) finally w.close()
  }
}

/** Benchmark scale knobs, overridable via env for quick local runs. */
object BenchConfig {
  /** values per dataset in the main grid (~0.5-1 MB per dataset). */
  def targetValues: Int = sys.env.get("FC_TARGET_VALUES").map(_.toInt).getOrElse(1 << 17)
  def iters: Int        = sys.env.get("FC_ITERS").map(_.toInt).getOrElse(2)
  /** values in the scalability block (8 MB of doubles by default). */
  def scaleValues: Int  = sys.env.get("FC_SCALE_VALUES").map(_.toInt).getOrElse(1 << 20)
}
