package repro.harness

import repro.SparkSpec
import repro.codecs.TestInputs
import repro.codecs.cpu.{Gorilla, Pfpc}
import repro.codecs.gpu.NvBitcomp
import repro.core._

/** The timing rule: a CPU codec gets one warm-up run and `iters` timed runs,
  * of which the fastest counts; a GPU codec runs exactly once. Every round
  * trip is checked bit for bit.
  */
class MeasureSpec extends SparkSpec {

  /** Counts the calls the harness makes into `inner`. */
  private final class Counting(inner: Codec) extends Codec {
    var compressCalls   = 0
    var decompressCalls = 0
    override def name: String     = inner.name
    override def platform: String = inner.platform
    override def compress(block: FpBlock): Compressed = {
      compressCalls += 1
      inner.compress(block)
    }
    override def decompress(data: Array[Byte], precision: Precision, extent: Seq[Long]): Decompressed = {
      decompressCalls += 1
      inner.decompress(data, precision, extent)
    }
  }

  /** pFPC at `threads` threads, with the lowest bit of one decoded value flipped. */
  private final class Flipping(val threads: Int) extends ThreadedCodec {
    private val inner = new Pfpc(threads)
    override def name: String     = "flipping-pFPC"
    override def platform: String = "CPU"
    override def withThreads(t: Int): Codec = new Flipping(t)
    override def compress(block: FpBlock): Compressed = inner.compress(block)
    override def decompress(data: Array[Byte], precision: Precision, extent: Seq[Long]): Decompressed = {
      val d    = inner.decompress(data, precision, extent)
      val bits = d.block.bits.clone()
      bits(bits.length / 2) ^= 1L
      d.copy(block = FpBlock(precision, extent, bits))
    }
  }

  test("best runs its body iters + 1 times and returns the warm-up's result") {
    var calls = 0
    val (first, _) = Measure.best(3) { calls += 1; calls }
    assert(first == 1)
    assert(calls == 4)
  }

  test("best reports the fastest timed run") {
    val sleepsMs = Iterator(0L, 200L, 20L, 100L)
    val (_, sec) = Measure.best(3)(Thread.sleep(sleepsMs.next()))
    assert(sec >= 0.020 && sec < 0.100, s"best of 200/20/100 ms sleeps took $sec s")
  }

  test("best and codec reject iters = 0") {
    intercept[IllegalArgumentException](Measure.best(0)(()))
    intercept[IllegalArgumentException](
      CompressionBench.measure(new Gorilla, TestInputs.smooth1dD(100), "x", "HPC", iters = 0))
  }

  private val block = TestInputs.smooth1dD(5000)
  private val iters = 3

  for ((inner, perPart) <- Seq(new NvBitcomp -> 1, new Gorilla -> (1 + iters))) {
    test(s"measure calls the ${inner.platform} codec ${inner.name} $perPart time(s) per direction") {
      val c = new Counting(inner)
      CompressionBench.measure(c, block, "x", "HPC", iters)
      assert((c.compressCalls, c.decompressCalls) == ((perPart, perPart)))
    }

    // "BlockedRunner.run" is the name this test has always had for Table 10's
    // blocked round trip, which is now Measure.roundtrip over BlockedRunner.split.
    test(s"BlockedRunner.run calls the ${inner.platform} codec ${inner.name} $perPart time(s) per part") {
      val c     = new Counting(inner)
      val parts = BlockedRunner.split(block, 4096)
      Measure.roundtrip(c, parts, iters)
      assert((c.compressCalls, c.decompressCalls) == ((perPart * parts.size, perPart * parts.size)))
    }
  }

  test("roundtrip raises, naming codec and part, when a whole block or a page decodes wrong") {
    for (parts <- Seq(Seq(block), BlockedRunner.split(block, 4096))) {
      val e = intercept[IllegalStateException](Measure.roundtrip(new Flipping(2), parts, iters = 1))
      assert(e.getMessage.contains("flipping-pFPC") && e.getMessage.contains("part 0"), e.getMessage)
    }
  }

  test("ScalabilityBench.sweep raises when a thread count decodes wrong") {
    intercept[IllegalStateException](
      ScalabilityBench.sweep(new Flipping(1), block, iters = 1, threadCounts = Seq(1, 2)))
  }
}
