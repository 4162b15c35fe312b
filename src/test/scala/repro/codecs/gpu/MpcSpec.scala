package repro.codecs.gpu

import repro.{PropSupport, SparkSpec}
import repro.core.{FpBlock, Precision}
import org.scalacheck.{Gen, Prop}

/** MPC codes its stream into one array sized for the worst case,
  * `(w + 1) · ⌈n / w⌉ · bytes`. Random bit patterns with every word
  * non-zero come closest to it. The property runs on a new thread, whose
  * scratch arrays are no larger than its own calls asked for, so a bound
  * that is too small overruns the array instead of a longer kept one.
  */
class MpcSpec extends SparkSpec with PropSupport {
  private val mpc = new Mpc

  private def bound(n: Int, p: Precision): Long = (p.bits + 1L) * ((n + p.bits - 1) / p.bits) * p.bytes

  /** Whether `n` random non-zero `p` patterns from `seed` code within the
    * bound and decode bit-exactly.
    */
  private def holds(n: Int, p: Precision, seed: Long): Boolean = {
    val rng  = new scala.util.Random(seed)
    val bits = Array.fill(n) {
      var v = 0L
      while (v == 0) v = if (p == Precision.Double) rng.nextLong() else rng.nextInt() & 0xffffffffL
      v
    }
    val block  = FpBlock(p, Seq(n.toLong), bits)
    val stream = mpc.compress(block).bytes
    stream.length <= bound(n, p) &&
      mpc.decompress(stream, p, block.extent).block.bits.sameElements(bits)
  }

  private def onNewThread(f: => Unit): Unit = {
    var failure: Option[Throwable] = None
    val t = new Thread(() => try f catch { case e: Throwable => failure = Some(e) })
    t.start()
    t.join()
    failure.foreach(throw _)
  }

  test("property: an all-non-zero stream fits (w + 1) · ⌈n / w⌉ words and decodes bit-exactly") {
    onNewThread {
      for (p <- Seq(Precision.Double, Precision.Single); n <- Seq(1, 31, 32, 33, 1023, 1024, 1025, 4097))
        assert(holds(n, p, n.toLong), s"$p n=$n")
      val gen = for {
        p    <- Gen.oneOf(Precision.Double, Precision.Single)
        n    <- Gen.choose(1, 5000)
        seed <- Gen.choose(Long.MinValue, Long.MaxValue)
      } yield (p, n, seed)
      checkProp(Prop.forAll(gen) { case (p, n, seed) => holds(n, p, seed) }, minTests = 100)
    }
  }
}
