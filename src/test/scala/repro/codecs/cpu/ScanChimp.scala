package repro.codecs.cpu

/** Chimp's leading-zero rounding as a linear scan over the buckets, twice
  * per value, kept as the oracle the lookup tables must match (see
  * [[ChimpSpec]]).
  */
object ScanChimp {
  private val LeadBuckets = Array(0, 8, 12, 16, 18, 20, 22, 24)

  /** The 3-bit code of the largest bucket not above `lz`. */
  def leadCode(lz: Int): Int = {
    var c = LeadBuckets.length - 1
    while (LeadBuckets(c) > lz) c -= 1
    c
  }

  /** Leading-zero count of x in a w-bit word, rounded down to a bucket value. */
  def leadBucketOf(x: Long, w: Int): Int = {
    val lz = java.lang.Long.numberOfLeadingZeros(x) - (64 - w)
    LeadBuckets(leadCode(math.min(lz, LeadBuckets.last)))
  }
}
