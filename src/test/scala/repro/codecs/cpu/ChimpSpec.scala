package repro.codecs.cpu

import repro.{PropSupport, SparkSpec}
import repro.core.FpBlock
import org.scalacheck.{Gen, Prop}

/** Chimp's leading-zero lookup tables against the linear scan kept in
  * [[ScanChimp]], and its per-thread value index across calls.
  */
class ChimpSpec extends SparkSpec with PropSupport {

  test("a one-thread sequence of 1, 512, 8 192 and 32 768 values writes a fresh thread's streams") {
    // Prefixes of one block. A stale index only changes a stream where it
    // names an unwritten ring slot for a value with 14 zero low bits (key 0):
    // here an integer at every 61st position from 5 on, amid random values.
    val rng = new scala.util.Random(41)
    val big = FpBlock.fromDoubles(Array.tabulate(32768)(i => if (i % 61 == 5) (i % 17 + 1).toDouble else rng.nextDouble()))
    val calls = Seq(32768, 512, 1, 8192, 512, 32768, 1, 8192, 512).map { n =>
      FpBlock(big.precision, Seq(n.toLong), big.bits.take(n))
    }
    val codec = new Chimp
    val fresh = calls.map(b => onFreshThread(codec.compress(b).bytes))
    for (((b, expected), k) <- calls.zip(fresh).zipWithIndex) {
      val bytes = codec.compress(b).bytes
      assert(java.util.Arrays.equals(bytes, expected), s"call $k: ${b.n} values")
      assert(java.util.Arrays.equals(codec.decompress(bytes, b.precision, b.extent).block.bits, b.bits), s"call $k")
    }
  }

  /** A w-bit word whose leading-zero count in 64 bits is `nlz`, with
    * `low` filling the bits below its top set bit.
    */
  private def withLeadingZeros(nlz: Int, low: Long): Long =
    if (nlz == 64) 0L else (1L << (63 - nlz)) | ((low >>> 1) >>> nlz)

  for (w <- Seq(32, 64))
    test(s"the tables round and code every leading-zero count 0..$w of a $w-bit word as the scan does") {
      for (lz <- 0 to w; low <- Seq(0L, -1L, 0x5555555555555555L)) {
        val x      = withLeadingZeros(lz + 64 - w, low)
        val bucket = Chimp.leadBucket(x, w)
        assert(bucket == ScanChimp.leadBucketOf(x, w), s"lz=$lz")
        assert(Chimp.LeadCode(bucket) == ScanChimp.leadCode(bucket), s"lz=$lz")
      }
    }

  test("the rounding table covers every count 0..64 as the scan does") {
    for (lz <- 0 to 64) {
      assert(Chimp.LeadRound(lz) == Chimp.LeadBuckets(ScanChimp.leadCode(lz)), s"lz=$lz")
      assert(Chimp.LeadCode(Chimp.LeadRound(lz)) == ScanChimp.leadCode(lz), s"lz=$lz")
    }
  }

  test("property: table and scan agree on random words at w = 32 and w = 64") {
    val gen = for {
      w     <- Gen.oneOf(32, 64)
      shift <- Gen.choose(0, 64)
      x     <- Gen.choose(Long.MinValue, Long.MaxValue)
    } yield (w, if (shift == 64) 0L else (x >>> shift) & (if (w == 64) -1L else 0xffffffffL))
    checkProp(Prop.forAll(gen) { case (w, x) =>
      val bucket = Chimp.leadBucket(x, w)
      Prop.propBoolean(bucket == ScanChimp.leadBucketOf(x, w) &&
                         Chimp.LeadCode(bucket) == ScanChimp.leadCode(bucket)) :| s"w=$w x=$x"
    }, minTests = 200)
  }
}
