package repro.codecs

import repro.{PropSupport, SparkSpec}
import repro.codecs.cpu.Spdp
import repro.core.{FpBlock, Precision}
import org.scalacheck.{Gen, Prop}

class SpdpSpec extends SparkSpec with PropSupport {

  /** `n` values of `precision` from `seed`: random bit patterns, or a slow
    * walk whose low bytes repeat, so the LZ stage finds matches.
    */
  private def block(precision: Precision, n: Int, walk: Boolean, seed: Long): FpBlock = {
    val rng  = new scala.util.Random(seed)
    val mask = if (precision == Precision.Single) 0xffffffffL else -1L
    val bits =
      if (walk) Array.tabulate(n)(i => FpBlock.singleBits((i / 7).toFloat) << (precision.bits - 32))
      else Array.fill(n)(rng.nextLong() & mask)
    FpBlock(precision, Seq(n.toLong), bits)
  }

  test("property: encode and decode match the three-pass oracle for both precisions and any value count") {
    // Odd single-precision counts leave a 4-byte tail outside the 8-byte rows.
    val gen = for {
      precision <- Gen.oneOf(Precision.Single, Precision.Double)
      n         <- Gen.frequency(3 -> Gen.choose(1, 9), 3 -> Gen.choose(10, 2000), 1 -> Gen.choose(30000, 33000))
      walk      <- Gen.oneOf(true, false)
      seed      <- Gen.choose(Long.MinValue, Long.MaxValue)
    } yield (precision, n, walk, seed)
    val spdp = new Spdp
    checkProp(Prop.forAllNoShrink(gen) { case (precision, n, walk, seed) =>
      val b      = block(precision, n, walk, seed)
      val comp   = spdp.compress(b)
      val oracle = ThreePassSpdp.compress(b)
      val got    = spdp.decompress(oracle.bytes, b.precision, b.extent)
      val back   = ThreePassSpdp.decompress(oracle.bytes, b.precision, b.extent)
      val failure =
        if (!java.util.Arrays.equals(comp.bytes, oracle.bytes) || comp.work != oracle.work) Some("encode differs")
        else if (!java.util.Arrays.equals(got.block.bits, back.block.bits) || got.block.extent != back.block.extent ||
                 got.work != back.work) Some("decode differs")
        else if (!java.util.Arrays.equals(got.block.bits, b.bits)) Some("decode is lossy")
        else None
      Prop.propBoolean(failure.isEmpty) :| s"$precision n=$n walk=$walk seed=$seed: ${failure.getOrElse("")}"
    }, minTests = 150)
  }
}
