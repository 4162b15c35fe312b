package repro.perfbench

import java.io.File
import org.apache.spark.sql.SparkSession
import repro.core._
import repro.db.CompressedColumnStore
import repro.db.CompressedColumnStore.QueryTiming
import scala.util.control.NonFatal

/** One column through the simulated database, for the `db.*` probe: write
  * it with `CompressedColumnStore.write`, then read, decode and run the 10
  * histogram scans with `readDecodeQuery`, and check the scan counts
  * against counts taken directly on the input array.
  */
object Db {
  /** Values in the probed column. A cell costs about 1.5 s of Spark jobs
    * whatever the column's size.
    */
  val ColumnValues: Int = 1 << 13

  final case class Cell(writeNs: Long, parquetBytes: Long, query: Option[QueryTiming],
                        error: Option[String])

  /** Scan counts for the 10 histogram thresholds, taken on the input array. */
  def expectedCounts(block: FpBlock): Seq[Long] = {
    val values = block.toDoubles
    CompressedColumnStore.histogramThresholds(values).map(t => values.count(_ <= t).toLong)
  }

  /** Bytes of the Parquet part files under `dir`. */
  def parquetBytes(dir: File): Long =
    Option(dir.listFiles()).toSeq.flatten
      .filter(f => f.getName.startsWith("part-") && f.getName.endsWith(".parquet"))
      .map(_.length).sum

  def cell(spark: SparkSession, dir: File, dataset: String, block: FpBlock, codec: Codec,
           tracer: Tracer): Cell =
    try {
      val t0 = System.nanoTime()
      tracer.span("db.write", "db")(CompressedColumnStore.write(spark, dir.getPath, block, codec))
      val writeNs = System.nanoTime() - t0
      val q = tracer.span("db.readDecodeQuery", "db")(
        CompressedColumnStore.readDecodeQuery(spark, dir.getPath, dataset, codec, block.precision))
      val expected = expectedCounts(block)
      Cell(writeNs, parquetBytes(dir), Some(q),
           if (q.counts == expected) None else Some(s"scan counts ${q.counts} differ from $expected"))
    } catch {
      case NonFatal(e) => Cell(0, 0, None, Some(CellResult.describe(e)))
    }
}
