package repro.harness.tables

import org.apache.spark.sql.SparkSession
import repro.core.CodecRegistry
import repro.data.FcDatasets
import repro.harness.{BlockedRunner, CompressionBench, Measure}

/** Table 10 — compression performance under 4 KB / 64 KB / 8 MB block sizes
  * for the eight block-convertible methods. Averages are taken over one
  * representative dataset per domain x precision (the paper averages over
  * its corpus; a spread across the domains reproduces the trend — larger
  * blocks help CR and throughput — at tractable bench time).
  */
object Table10 {

  final case class Cell(codec: String, blockBytes: Int, cr: Double,
                        ctGBps: Double, dtGBps: Double)
  final case class Result(cells: Seq[Cell], text: String)

  /** One dataset per domain, both precisions represented. */
  val SampleDatasets: Seq[String] =
    Seq("msg-bt", "rsim", "nyc-taxi", "citytemp", "hdr-night", "tpcH-order", "tpcDS-store")

  def run(spark: SparkSession): Result = {
    val blocks = SampleDatasets.map(n => FcDatasets.byName(n).block(spark, BenchConfig.targetValues))
    val cells = for {
      bs    <- BlockedRunner.PaperBlockSizes
      codec <- PaperNumbers.Table10Methods.map(CodecRegistry.byName)
    } yield {
      val runs = blocks.map(b => Measure.roundtrip(codec, BlockedRunner.split(b, bs), BenchConfig.iters))
      Cell(codec.name, bs,
           CompressionBench.harmonicMean(runs.map(_.cr)),
           CompressionBench.arithmeticMean(runs.map(_.ctGBps)),
           CompressionBench.arithmeticMean(runs.map(_.dtGBps)))
    }

    val header = Seq("blocksize", "metric") ++ PaperNumbers.Table10Methods
    val body = BlockedRunner.PaperBlockSizes.flatMap { bs =>
      val label = if (bs >= (1 << 20)) s"${bs >> 20}M" else s"${bs >> 10}K"
      def rowFor(metric: String, get: Cell => Double,
                 paperGet: ((Double, Double, Double)) => Double) =
        Seq(label, metric) ++ PaperNumbers.Table10Methods.map { m =>
          val c = cells.find(x => x.codec == m && x.blockBytes == bs).get
          Render.vs(get(c), Some(paperGet(PaperNumbers.table10(bs)(m))))
        }
      Seq(rowFor("avg-CR", _.cr, _._1),
          rowFor("avg-CT (GB/s)", _.ctGBps, _._2),
          rowFor("avg-DT (GB/s)", _.dtGBps, _._3))
    }
    val text =
      "Table 10: compression performance under different block sizes -- measured(paper)\n" +
      Render.table(header, body)
    Result(cells, text)
  }
}
