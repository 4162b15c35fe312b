package repro.codecs.cpu

import repro.{PropSupport, SparkSpec}
import repro.core.{FpBlock, Precision}
import org.scalacheck.{Gen, Prop}

/** pFPC's word-at-a-time coder against the byte-wise one kept in
  * [[BytewisePfpc]]: equal streams, and each stream decodes to its input.
  */
class PfpcSpec extends SparkSpec with PropSupport {

  /** Values that repeat (FCM predicts them, an all-zero residual), step by
    * a little (a few residual bytes) or are random (all 8).
    */
  private def values(n: Int, poolSize: Int, seed: Long): Array[Long] = {
    val rng  = new scala.util.Random(seed)
    val pool = Array.fill(poolSize)(rng.nextLong())
    var prev = rng.nextLong()
    Array.fill(n) {
      prev = rng.nextInt(3) match {
        case 0 => pool(rng.nextInt(poolSize))
        case 1 => prev + rng.nextInt(1 << rng.nextInt(24))
        case _ => rng.nextLong()
      }
      prev
    }
  }

  private def block(bits: Array[Long], precision: Precision): FpBlock = precision match {
    case Precision.Double => FpBlock(precision, Seq(bits.length.toLong), bits)
    case Precision.Single => FpBlock(precision, Seq(bits.length.toLong), bits.map(_ & 0xffffffffL))
  }

  /** The stream of both coders is the same and decodes to `b`. */
  private def agrees(b: FpBlock, threads: Int): Boolean = {
    val codec = new Pfpc(threads)
    val bytes = codec.compress(b).bytes
    java.util.Arrays.equals(bytes, BytewisePfpc.compress(b, threads)) &&
      java.util.Arrays.equals(codec.decompress(bytes, b.precision, b.extent).block.bits, b.bits)
  }

  test("property: the stream equals the byte-wise oracle's and decodes, both precisions, 1-4 threads") {
    val gen = for {
      n         <- Gen.choose(1, 700)
      precision <- Gen.oneOf(Precision.Double, Precision.Single)
      threads   <- Gen.choose(1, 4)
      poolSize  <- Gen.choose(1, 16)
      seed      <- Gen.choose(Long.MinValue, Long.MaxValue)
    } yield (n, precision, threads, poolSize, seed)
    checkProp(Prop.forAllNoShrink(gen) { case (n, precision, threads, poolSize, seed) =>
      Prop.propBoolean(agrees(block(values(n, poolSize, seed), precision), threads)) :|
        s"n=$n precision=$precision threads=$threads pool=$poolSize seed=$seed"
    }, minTests = 80)
  }

  test("all-zero residuals, a whole block of them, match the oracle and decode") {
    for (n <- Seq(1, 2, 3, 8, 9, 513); threads <- Seq(1, 3))
      withClue(s"n=$n threads=$threads: ") {
        assert(agrees(FpBlock.fromDoubles(Array.fill(n)(0.0)), threads))
        assert(agrees(FpBlock.fromDoubles(Array.fill(n)(2.5)), threads))
      }
  }

  test("a stream whose last residuals end within its last 8 bytes matches the oracle and decodes") {
    // The last value repeats (an all-zero residual), steps by one (one
    // residual byte) or is random (eight), after a run the tables learn.
    for (last <- Seq(7L, 8L, 0x1234567890abcdefL); n <- Seq(64, 65)) {
      val bits = Array.tabulate(n)(i => if (i == n - 1) last else (i % 8).toLong)
      withClue(s"last=$last n=$n: ")(assert(agrees(FpBlock(Precision.Double, Seq(n.toLong), bits), 1)))
    }
  }
}
