package repro.harness

import repro.SparkSpec
import repro.codecs.TestInputs
import repro.codecs.cpu.Gorilla
import repro.codecs.gpu.NvBitcomp
import repro.core._

/** The timing rule: a CPU codec gets one warm-up run and `iters` timed runs,
  * of which the fastest counts; a GPU codec runs exactly once.
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
      assert(CompressionBench.measure(c, block, "x", "HPC", iters).lossless)
      assert((c.compressCalls, c.decompressCalls) == ((perPart, perPart)))
    }

    test(s"BlockedRunner.run calls the ${inner.platform} codec ${inner.name} $perPart time(s) per part") {
      val c     = new Counting(inner)
      val parts = BlockedRunner.split(block, 4096).size
      assert(BlockedRunner.run(c, block, 4096, iters).lossless)
      assert((c.compressCalls, c.decompressCalls) == ((perPart * parts, perPart * parts)))
    }
  }
}
