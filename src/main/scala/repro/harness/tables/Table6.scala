package repro.harness.tables

import org.apache.spark.sql.SparkSession
import repro.harness.{CompressionBench, MetricsRow}

/** Table 6 — end-to-end wall time (ms) per method, averaged over datasets.
  * GPU methods pay the modeled host-to-device / device-to-host PCIe copies
  * (Observation 5); nvCOMP methods are omitted exactly as in the paper.
  * Absolute values are not comparable to the paper's (different corpus size
  * and substrate); the comparison is the *ordering* and the GPU-vs-CPU gap.
  */
object Table6 {

  final case class Result(rows: Seq[MetricsRow],
                          compMs: Map[String, Double],
                          decompMs: Map[String, Double],
                          text: String)

  def run(spark: SparkSession): Result = {
    val rows    = GridCache.metrics(spark)
    val methods = PaperNumbers.Table6Methods
    val comp = methods.map(m =>
      m -> CompressionBench.arithmeticMean(
        rows.filter(_.codec == m).map(_.roundtrip.comp.endToEnd * 1e3))).toMap
    val decomp = methods.map(m =>
      m -> CompressionBench.arithmeticMean(
        rows.filter(_.codec == m).map(_.roundtrip.decomp.endToEnd * 1e3))).toMap

    val header = "metric" +: methods
    val body = Seq(
      "avg comp (ms)"   +: methods.zipWithIndex.map { case (m, i) =>
        Render.vs(comp(m), Some(PaperNumbers.table6CompMs(i))) },
      "avg decomp (ms)" +: methods.zipWithIndex.map { case (m, i) =>
        Render.vs(decomp(m), Some(PaperNumbers.table6DecompMs(i))) },
    )
    val text =
      "Table 6: end-to-end wall time (ms), incl. modeled PCIe copies for GPU -- measured(paper)\n" +
      Render.table(header, body)
    Result(rows, comp, decomp, text)
  }
}
