package repro.harness.tables

import org.apache.spark.sql.SparkSession
import repro.core.CodecRegistry
import repro.data.FcDatasets
import repro.db.CompressedColumnStore
import repro.harness.CompressionBench

/** Table 11 — read + decode + full-scan-query time on the TPC datasets in
  * the simulated database (compressed column chunks in Parquet, queries over
  * the decoded column with Spark SQL). Cells print "read+decode" ms; the
  * final column is the query time, identical across methods because the
  * decoded frame is the same.
  */
object Table11 {

  final case class Cell(dataset: String, codec: String,
                        readMs: Double, decodeMs: Double)
  final case class Result(cells: Seq[Cell], queryMs: Map[String, Double],
                          meanTotalMs: Map[String, Double], text: String)

  /** Values per dataset as a multiple of the grid's: decode-time
    * differences must clear I/O noise. */
  private val SizeFactor = 4
  /** Where the column chunks are written. */
  private val Dir = "target/colstore"

  def run(spark: SparkSession): Result = {
    val methods = PaperNumbers.Table11Methods
    val tpc     = FcDatasets.tpc

    val all = for (spec <- tpc) yield {
      val block = spec.block(spark, BenchConfig.targetValues * SizeFactor)
      val perCodec = methods.map { m =>
        val codec = CodecRegistry.byName(m)
        val path  = s"$Dir/${spec.name}-$m"
        CompressedColumnStore.write(spark, path, block, codec)
        val t = CompressedColumnStore.readDecodeQuery(spark, path, spec.name, codec,
                                                      spec.precision)
        (Cell(spec.name, m, t.readMs, t.decodeMs), t.queryMs)
      }
      (spec.name, perCodec)
    }
    val cells   = all.flatMap(_._2.map(_._1))
    val queryMs = all.map { case (ds, pc) =>
      ds -> CompressionBench.arithmeticMean(pc.map(_._2))
    }.toMap
    val meanTotal = methods.map { m =>
      m -> CompressionBench.arithmeticMean(
        cells.filter(_.codec == m).map(c => c.readMs + c.decodeMs))
    }.toMap

    val header = "dataset" +: methods :+ "query"
    val body = tpc.map { spec =>
      val paperRow = PaperNumbers.table11ReadDecode(spec.name)
      spec.name +: methods.zipWithIndex.map { case (m, i) =>
        val c = cells.find(x => x.dataset == spec.name && x.codec == m).get
        val paper = paperRow(i).map { case (r, d) => s"${r.toInt}+${d.toInt}" }.getOrElse("-")
        f"${c.readMs}%.0f+${c.decodeMs}%.0f($paper)"
      } :+ Render.vs(queryMs(spec.name), PaperNumbers.table11QueryMs.get(spec.name))
    } :+ ("arith-mean" +: methods.map(m => Render.fmt(meanTotal(m))) :+ "")
    val text =
      "Table 11: read+decode and query time (ms) from the simulated DB -- measured(paper)\n" +
      Render.table(header, body)
    Result(cells, queryMs, meanTotal, text)
  }
}
