package repro.core

import java.util.Arrays

/** The byte-at-a-time `BitWriter` and `BitReader` that `core.BitIO` replaced
  * with 64-bit words, kept as the oracle the word-at-a-time classes must
  * match bit for bit (see [[BitIOSpec]]).
  *
  * MSB-first bit stream writer backed by a growable byte array; each field is
  * OR-ed into `buf` one byte per loop step.
  */
final class ByteLoopBitWriter(initialCapacity: Int = 1024) {
  private var buf: Array[Byte] = new Array[Byte](math.max(16, initialCapacity))
  private var bytePos: Int     = 0
  private var bitPos: Int      = 0 // bits already used in buf(bytePos), 0..7

  private def ensure(extraBytes: Int): Unit = {
    if (bytePos + extraBytes + 1 > buf.length) {
      buf = Arrays.copyOf(buf, math.max(buf.length * 2, bytePos + extraBytes + 16))
    }
  }

  /** Write the low `n` bits of `value`, MSB first. `n` in [0, 64]. */
  def writeBits(value: Long, n: Int): Unit = {
    require(n >= 0 && n <= 64, s"bit count out of range: $n")
    ensure((n >> 3) + 2)
    var remaining = n
    while (remaining > 0) {
      val space = 8 - bitPos
      val take  = math.min(space, remaining)
      val shift = remaining - take
      val bits  = if (shift >= 64) 0L else (value >>> shift) & ((1L << take) - 1)
      buf(bytePos) = (buf(bytePos) | (bits << (space - take)).toByte).toByte
      bitPos += take
      remaining -= take
      if (bitPos == 8) { bytePos += 1; bitPos = 0 }
    }
  }

  def writeBit(b: Int): Unit = writeBits(b.toLong & 1L, 1)

  /** Pad with zero bits to the next byte boundary. */
  def align(): Unit = if (bitPos != 0) { bytePos += 1; bitPos = 0 }

  /** Number of complete or partial bytes written so far. */
  def sizeBytes: Int = bytePos + (if (bitPos > 0) 1 else 0)

  def sizeBits: Long = bytePos.toLong * 8 + bitPos

  def toArray: Array[Byte] = Arrays.copyOf(buf, sizeBytes)
}

/** MSB-first bit stream reader over a byte array, one byte per loop step.
  * Mirrors [[ByteLoopBitWriter]].
  */
final class ByteLoopBitReader(buf: Array[Byte], startByte: Int = 0) {
  private var bytePos: Int = startByte
  private var bitPos: Int  = 0

  /** Read `n` bits (MSB first) as an unsigned value in a Long. `n` in [0, 64]. */
  def readBits(n: Int): Long = {
    require(n >= 0 && n <= 64, s"bit count out of range: $n")
    var remaining = n
    var out       = 0L
    while (remaining > 0) {
      val avail = 8 - bitPos
      val take  = math.min(avail, remaining)
      val bits  = (buf(bytePos) >>> (avail - take)) & ((1 << take) - 1)
      out = (out << take) | (bits.toLong & 0xffL)
      bitPos += take
      remaining -= take
      if (bitPos == 8) { bytePos += 1; bitPos = 0 }
    }
    out
  }

  def readBit(): Int = readBits(1).toInt

  def align(): Unit = if (bitPos != 0) { bytePos += 1; bitPos = 0 }

  def bytePosition: Int = bytePos
}
