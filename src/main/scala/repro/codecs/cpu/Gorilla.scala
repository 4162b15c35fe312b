package repro.codecs.cpu

import repro.core._

/** Gorilla's floating-point value compression [Pelkonen et al., VLDB'15].
  *
  * XOR each value with its predecessor and encode the residual with three
  * control codes:
  *   - `0`  : residual is zero
  *   - `10` : residual's meaningful bits fit the previous leading/trailing
  *            zero window — store only those bits
  *   - `11` : new window — store 5-bit leading-zero count, length of the
  *            meaningful bits, then the bits
  *
  * The paper's Gorilla is double-only; FCBench runs it on single-precision
  * datasets too, so this implementation is word-size generic (the length
  * field shrinks to 5 bits for 32-bit words, and a stored length of 0 means
  * "full word" since w does not fit its own field).
  *
  * The encoder's output is the thread's [[repro.core.Scratch.bits]].
  */
final class Gorilla extends Codec {
  override def name: String     = "Gorilla"
  override def platform: String = "CPU"

  override def compress(block: FpBlock): Compressed = {
    val w       = block.precision.bits
    val lenBits = if (w == 64) 6 else 5
    val out     = Scratch.get.bits.restart(block.n * block.precision.bytes / 2 + 64)
    val vals    = block.bits
    var prev    = 0L
    var prevLz  = -1
    var prevTz  = -1
    var ops     = 0L
    var i = 0
    while (i < vals.length) {
      val v = vals(i)
      if (i == 0) {
        out.writeBits(v, w)
      } else {
        val xor = (v ^ prev) & Words.mask(w)
        if (xor == 0) out.writeBit(0)
        else {
          val lz = math.min(leadingZeros(xor, w), 31)
          val tz = java.lang.Long.numberOfTrailingZeros(xor)
          if (prevLz >= 0 && lz >= prevLz && tz >= prevTz) {
            val len = w - prevLz - prevTz
            if (len <= 62) out.writeBits((2L << len) | (xor >>> prevTz), 2 + len)
            else { out.writeBits(2L, 2); out.writeBits(xor >>> prevTz, len) }
          } else {
            val len = w - lz - tz
            out.writeBits((3L << (5 + lenBits)) | (lz.toLong << lenBits) |
                            (if (len == w) 0L else len.toLong), 2 + 5 + lenBits)
            out.writeBits(xor >>> tz, len)
            prevLz = lz; prevTz = tz
          }
        }
      }
      ops += 12
      prev = v
      i += 1
    }
    Compressed(out.toArray,
               WorkProfile(block.sizeBytes, out.sizeBytes, ops, divergent = false))
  }

  override def decompress(data: Array[Byte], precision: Precision, extent: Seq[Long]): Decompressed = {
    val w       = precision.bits
    val lenBits = if (w == 64) 6 else 5
    val n       = extent.product.toInt
    val in      = new BitReader(data)
    val vals    = new Array[Long](n)
    var prev    = 0L
    var prevLz  = -1
    var prevTz  = -1
    var i = 0
    while (i < n) {
      val v =
        if (i == 0) in.readBits(w)
        else if (in.readBit() == 0) prev
        else if (in.readBit() == 0) prev ^ (in.readBits(w - prevLz - prevTz) << prevTz)
        else {
          val hdr    = in.readBits(5 + lenBits).toInt
          val lz     = hdr >>> lenBits
          val lenRaw = hdr & ((1 << lenBits) - 1)
          val len    = if (lenRaw == 0) w else lenRaw
          val tz     = w - lz - len
          prevLz = lz; prevTz = tz
          prev ^ (in.readBits(len) << tz)
        }
      vals(i) = v & Words.mask(w)
      prev = vals(i)
      i += 1
    }
    Decompressed(FpBlock(precision, extent, vals),
                 WorkProfile(data.length, n.toLong * precision.bytes, n.toLong * 10, divergent = false))
  }


  private def leadingZeros(x: Long, w: Int): Int =
    java.lang.Long.numberOfLeadingZeros(x) - (64 - w)
}
