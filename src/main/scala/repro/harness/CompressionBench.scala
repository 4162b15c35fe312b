package repro.harness

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.data.{DatasetSpec, FcDatasets}

/** One (dataset x codec) measurement — the row Tables 4/5/6 aggregate over:
  * the cell's labels and its [[Measure.Roundtrip]].
  *
  * CPU rows carry measured wall-clock seconds; GPU rows carry cost-model
  * seconds (see [[repro.gpusim.GpuModel]]) for the kernel and end-to-end
  * (kernel + PCIe) flavors. A row exists only for a bit-exact round trip.
  */
final case class MetricsRow(dataset: String, domain: String, codec: String, platform: String,
                            roundtrip: Measure.Roundtrip)

/** The core benchmark: every (dataset, codec) cell of the FCBench grid.
  * Spark generates the dataset blocks (the corpus is MB-scale); the cells
  * are then measured one at a time on the driver with [[Measure]].
  */
object CompressionBench {

  /** One [[Measure.roundtrip]] of `codec` over `block`, labelled. */
  def measure(codec: Codec, block: FpBlock, dataset: String, domain: String,
              iters: Int = 2): MetricsRow = {
    MetricsRow(dataset, domain, codec.name, codec.platform, Measure.roundtrip(codec, Seq(block), iters))
  }

  /** Run the full grid: build every dataset's block, then measure each
    * (dataset, codec) cell.
    */
  def runGrid(spark: SparkSession,
              specs: Seq[DatasetSpec] = FcDatasets.all,
              codecs: Seq[Codec] = CodecRegistry.all,
              targetValues: Int = 1 << 17,
              iters: Int = 2): Seq[MetricsRow] = {
    val blocks = specs.map(s => s -> s.block(spark, targetValues))
    for ((s, block) <- blocks; c <- codecs) yield measure(c, block, s.name, s.domain, iters)
  }

  /** Aggregate helpers (paper §5.2): harmonic mean of CRs, arithmetic mean of
    * throughputs.
    */
  def harmonicMean(xs: Seq[Double]): Double =
    if (xs.isEmpty) Double.NaN else xs.size / xs.map(1.0 / _).sum

  def arithmeticMean(xs: Seq[Double]): Double =
    if (xs.isEmpty) Double.NaN else xs.sum / xs.size
}
