package repro.harness.tables

import org.apache.spark.sql.SparkSession
import repro.core.ThreadedCodec
import repro.codecs.cpu.{BitshuffleLz4, BitshuffleZstd, NdzipCpu, Pfpc}
import repro.data.FcDatasets
import repro.harness.ScalabilityBench
import repro.harness.ScalabilityBench.ScalePoint

/** Tables 7 and 8 — parallel compression/decompression throughput vs thread
  * count for the four thread-parallel CPU codecs. The paper's node had 48
  * hardware threads; this box has fewer, so we sweep 1..32 (substitution #7
  * in DESIGN.md) and compare shape: rising throughput to ~cores, then decay.
  */
object Table7And8 {

  final case class Result(points: Map[String, Seq[ScalePoint]],
                          table7Text: String, table8Text: String)

  def codecs: Seq[ThreadedCodec] =
    Seq(new Pfpc(), new BitshuffleLz4(), new BitshuffleZstd(), new NdzipCpu())

  /** Timed runs per (codec, thread count), the fastest of which counts. */
  private val Iters = 3

  def run(spark: SparkSession): Result = {
    // the paper profiles scalability on msg-bt; use its synthetic twin
    val block  = FcDatasets.byName("msg-bt").block(spark, BenchConfig.scaleValues)
    val sweep  = ScalabilityBench.ThreadSweep
    val points = codecs.map(c => c.name -> ScalabilityBench.sweep(c, block, Iters, sweep)).toMap

    def render(title: String, get: ScalePoint => Double,
               paper: Map[Int, Seq[Double]]): String = {
      val names  = PaperNumbers.ScalabilityMethods
      val header = "threads" +: names
      val body = sweep.map { t =>
        t.toString +: names.zipWithIndex.map { case (n, i) =>
          val p    = points(n).find(_.threads == t).get
          val base = points(n).find(_.threads == 1).get
          val speedup = get(p) / get(base)
          f"${get(p)}%.0f MB/s ${speedup}%.2fx" +
            paper.get(t).map(row => s" (paper ${row(i).toInt} MB/s)").getOrElse("")
        }
      }
      s"$title\n${Render.table(header, body)}"
    }

    Result(points,
           render("Table 7: parallel compression throughput", _.compMBps,
                  PaperNumbers.table7CompMBps),
           render("Table 8: parallel decompression throughput", _.decompMBps,
                  PaperNumbers.table8DecompMBps))
  }
}
