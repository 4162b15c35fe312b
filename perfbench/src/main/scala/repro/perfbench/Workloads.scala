package repro.perfbench

import java.io.File
import org.apache.spark.sql.SparkSession
import repro.core._
import repro.data.FcDatasets
import repro.harness.BlockedRunner
import repro.harness.tables.{PaperNumbers, Table10}
import scala.util.Random

/** What a workload's calls need: the session, the tracer, whether to count
  * allocations (traced passes only), where to write, and the thread count
  * the parallel settings use.
  */
final case class Ctx(spark: SparkSession, tracer: Tracer, countAlloc: Boolean,
                     workDir: File, maxThreads: Int)

/** One benchmark workload: the datasets it generates, how each dataset is
  * cut into one cell's blocks, and the codecs every cell runs, each at one
  * thread. Generating inputs is set-up. A pass runs every cell once, in an
  * order drawn from the seeded generator; the set of cells is the same on
  * every pass and every seed.
  */
class Workload(val name: String, datasetNames: Seq[String], values: Int,
               val codecNames: Seq[String]) {

  /** The blocks one cell hands to a codec, cut from one dataset. */
  protected def cellBlocks(block: FpBlock): Seq[FpBlock] = Seq(block)

  private var generated = Seq.empty[(String, FpBlock)]
  private var cellInputs = Seq.empty[Seq[FpBlock]]

  /** Generate the inputs: one corpus generation. */
  def generate(spark: SparkSession): Unit = {
    generated = datasetNames.map(n => n -> FcDatasets.byName(n).block(spark, values))
    cellInputs = generated.map { case (_, b) => cellBlocks(b) }
  }

  /** Generated datasets by name, for fingerprinting. */
  def datasets: Seq[(String, FpBlock)] = generated

  /** Every block this workload hands to codecs. */
  def units: Seq[FpBlock] = cellInputs.flatten

  private def codec(name: String): Codec =
    Cells.pinned(CodecRegistry.byName(name), Workload.CodecThreads)

  /** Untimed rounds, each a round trip of every block through each codec
    * in turn, so the JIT compiles the hot loops before timing: at
    * least [[Workload.WarmUpRounds]] rounds and [[Workload.WarmUpSeconds]].
    */
  def warmUp(): Unit = {
    val until = System.nanoTime() + (Workload.WarmUpSeconds * 1e9).toLong
    var rounds = 0
    while (rounds < Workload.WarmUpRounds || System.nanoTime() < until) {
      for (n <- codecNames)
        Cells.roundtrip(n, codec(n), units, new Tracer, countAlloc = false)
      rounds += 1
    }
  }

  /** Every cell once, run in an order drawn from `rng`. The results come
    * back in the workload's fixed cell order, so the i-th result of every
    * pass is the same cell and aggregates sum in the same order.
    */
  def pass(ctx: Ctx, rng: Random): Seq[CellResult] = {
    val cells = (for (in <- cellInputs; n <- codecNames) yield (in, n)).toVector
    val out = new Array[CellResult](cells.size)
    for (i <- rng.shuffle(cells.indices.toVector)) {
      val (in, n) = cells(i)
      out(i) = Cells.roundtrip(s"${Names.metricSafe(n)}@${Workload.CodecThreads}t", codec(n), in,
                               ctx.tracer, ctx.countAlloc)
    }
    out.toSeq
  }
}

object Workload {
  /** Threads every threaded codec is pinned to in the passes. */
  val CodecThreads = 1

  /** Least warm-up before timing starts, in rounds and in seconds. */
  val WarmUpRounds = 2
  val WarmUpSeconds = 4.0

  /** Values per dataset block: 256 KiB of doubles or 128 KiB of singles. */
  val BlockValues: Int = 1 << 15

  val PageBytes = 4096

  def byName(name: String): Workload = name match {
    // Tables 4/5: every dataset x every codec on whole blocks, one thread.
    case "grid" =>
      new Workload(name, FcDatasets.all.map(_.name), BlockValues, CodecRegistry.all.map(_.name))
    // Table 10: the block-capable codecs on 4 KiB pages, one thread, over
    // Table 10's sample of one dataset per domain and precision.
    case "pages" =>
      new Workload(name, Table10.SampleDatasets, BlockValues, PaperNumbers.Table10Methods) {
        override protected def cellBlocks(block: FpBlock): Seq[FpBlock] =
          BlockedRunner.split(block, PageBytes)
      }
    case other => throw new IllegalArgumentException(
      s"unknown workload: $other (known: grid, pages)")
  }
}
