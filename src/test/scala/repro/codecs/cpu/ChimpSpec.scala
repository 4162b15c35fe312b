package repro.codecs.cpu

import repro.{PropSupport, SparkSpec}
import org.scalacheck.{Gen, Prop}

/** Chimp's leading-zero lookup tables against the linear scan kept in
  * [[ScanChimp]].
  */
class ChimpSpec extends SparkSpec with PropSupport {

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
