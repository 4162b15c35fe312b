package repro.codecs.cpu

import repro.core._

/** Chimp128 [Liakos et al., VLDB'22] — Gorilla's XOR scheme with (a) control
  * codes redesigned for residuals with few trailing zeros and (b) a 128-entry
  * table of previous values indexed by their low bits, so each value XORs
  * against the *best* of the last 128 values rather than only the previous.
  *
  * Control codes (2 bits):
  *   - `00` : value identical to the indexed previous value — store its 7-bit
  *            ring index
  *   - `01` : trailing zeros of the XOR against the indexed value exceed the
  *            threshold — store 7-bit index, 3-bit rounded leading-zero code,
  *            significant-bit length, then the center bits
  *   - `10` : XOR against the immediately previous value, leading zeros equal
  *            the stored ones — store the (w - lz) low bits
  *   - `11` : same but new leading-zero count — store 3-bit code then bits
  *
  * The encoder's index table and output are per thread and reused across
  * calls (see [[repro.core.ReusedTable]] and [[repro.core.KeptArray]]).
  * Leading-zero counts are rounded through lookup tables, as in the
  * reference implementation.
  */
final class Chimp extends Codec {
  import Chimp._

  override def name: String     = "Chimp"
  override def platform: String = "CPU"

  override def compress(block: FpBlock): Compressed = {
    val w       = block.precision.bits
    val lenBits = if (w == 64) 6 else 5
    val out     = writers.get.restart(block.n * block.precision.bytes / 2 + 64)
    val vals    = block.bits
    val stored  = new Array[Long](PrevValues)
    val table   = indexTables.get.acquire(vals.length)
    val indices = table.slots
    var storedLz = Int.MaxValue
    var ops      = 0L

    var i = 0
    while (i < vals.length) {
      val v = vals(i)
      if (i == 0) out.writeBits(v, w)
      else {
        val key = (v & KeyMask).toInt
        var refIdx = (i - 1) % PrevValues // default: immediately previous value
        var viaTable = false
        if (i - indices(key) <= PrevValues && indices(key) >= 0) {
          val cand = indices(key) % PrevValues
          val xorC = (v ^ stored(cand)) & Words.mask(w)
          if (xorC == 0 || java.lang.Long.numberOfTrailingZeros(xorC) > TrailThreshold) {
            refIdx = cand; viaTable = true
          }
        }
        val xor = (v ^ stored(refIdx)) & Words.mask(w)
        if (viaTable) {
          if (xor == 0) {
            out.writeBits(refIdx.toLong, 2 + PrevLog2) // 00, index
          } else {
            val lz  = leadBucket(xor, w)
            val tz  = java.lang.Long.numberOfTrailingZeros(xor)
            val sig = w - lz - tz
            // 01, index, lead code, length
            out.writeBits((1L << (PrevLog2 + 3 + lenBits)) | (refIdx.toLong << (3 + lenBits)) |
                            (LeadCode(lz).toLong << lenBits) | sig, 2 + PrevLog2 + 3 + lenBits)
            out.writeBits(xor >>> tz, sig)
          }
          storedLz = Int.MaxValue
        } else {
          // xor against previous value; trailing zeros <= threshold
          val lz = leadBucket(xor, w)
          if (lz == storedLz) {
            out.writeBits(2L, 2) // 10
            out.writeBits(xor, w - lz)
          } else {
            storedLz = lz
            out.writeBits((3L << 3) | LeadCode(lz), 2 + 3) // 11, lead code
            out.writeBits(xor, w - lz)
          }
        }
      }
      stored(i % PrevValues) = v
      indices((v & KeyMask).toInt) = i
      ops += 18
      i += 1
    }
    table.release(vals.length)(table.reset(vals))
    Compressed(out.toArray,
               WorkProfile(block.sizeBytes, out.sizeBytes, ops, divergent = false))
  }

  override def decompress(data: Array[Byte], precision: Precision, extent: Seq[Long]): Decompressed = {
    val w       = precision.bits
    val lenBits = if (w == 64) 6 else 5
    val n       = extent.product.toInt
    val in      = new BitReader(data)
    val vals    = new Array[Long](n)
    val stored  = new Array[Long](PrevValues)
    var storedLz = Int.MaxValue
    var i = 0
    while (i < n) {
      val v =
        if (i == 0) in.readBits(w)
        else in.readBits(2).toInt match {
          case 0 =>
            stored(in.readBits(PrevLog2).toInt)
          case 1 =>
            val hdr    = in.readBits(PrevLog2 + 3 + lenBits).toInt
            val refIdx = hdr >>> (3 + lenBits)
            val lz     = LeadBuckets((hdr >>> lenBits) & 7)
            val sig    = hdr & ((1 << lenBits) - 1)
            val tz     = w - lz - sig
            storedLz = Int.MaxValue
            stored(refIdx) ^ (in.readBits(sig) << tz)
          case 2 =>
            stored((i - 1) % PrevValues) ^ in.readBits(w - storedLz)
          case _ =>
            storedLz = LeadBuckets(in.readBits(3).toInt)
            stored((i - 1) % PrevValues) ^ in.readBits(w - storedLz)
        }
      vals(i) = v & Words.mask(w)
      stored(i % PrevValues) = vals(i)
      i += 1
    }
    Decompressed(FpBlock(precision, extent, vals),
                 WorkProfile(data.length, n.toLong * precision.bytes, n.toLong * 12, divergent = false))
  }
}

object Chimp {
  private final val PrevValues     = 128
  private final val PrevLog2       = 7
  private final val TrailThreshold = 6 + PrevLog2 // 13, per the Chimp128 reference impl
  private final val KeyMask        = (1L << (TrailThreshold + 1)) - 1
  private final val NoIndex        = -PrevValues - 1

  /** Leading-zero counts are rounded down to one of 8 buckets; the 3-bit
    * code of a bucket is its index here.
    */
  private[cpu] val LeadBuckets: Array[Int] = Array(0, 8, 12, 16, 18, 20, 22, 24)

  /** The bucket of each leading-zero count 0..64. */
  private[cpu] val LeadRound: Array[Int] =
    Array.tabulate(65)(lz => LeadBuckets.filter(_ <= lz).max)

  /** The 3-bit code of each bucket, indexed by the bucket's value. */
  private[cpu] val LeadCode: Array[Int] = {
    val codes = new Array[Int](LeadBuckets.last + 1)
    LeadBuckets.indices.foreach(c => codes(LeadBuckets(c)) = c)
    codes
  }

  /** Leading-zero count of `x` in a w-bit word, rounded down to a bucket. */
  private[cpu] def leadBucket(x: Long, w: Int): Int =
    LeadRound(java.lang.Long.numberOfLeadingZeros(x) - (64 - w))

  /** The encoder's index of the last position holding each low-bits key. */
  private final class Index extends ReusedTable((KeyMask + 1).toInt) {
    val slots = new Array[Int]((KeyMask + 1).toInt)
    protected def fill(): Unit = java.util.Arrays.fill(slots, NoIndex)

    def reset(vals: Array[Long]): Unit = {
      var i = 0
      while (i < vals.length) { slots((vals(i) & KeyMask).toInt) = NoIndex; i += 1 }
    }
  }

  private val indexTables = ThreadLocal.withInitial[Index](() => new Index)

  /** The encoder's output, one per thread (see [[BitWriter.restart]]). */
  private val writers = ThreadLocal.withInitial[BitWriter](() => new BitWriter)
}
