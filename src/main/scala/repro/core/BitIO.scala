package repro.core

import java.util.Arrays

/** MSB-first bit stream writer backed by a growable byte array.
  *
  * The XOR codecs (Gorilla, Chimp), fpzip's verbatim-bit tail, GFC's 4-bit
  * headers and residual bytes, and nv:btcomp's packed deltas are emitted
  * through this writer. Bits are packed most-significant-first inside each
  * byte so the stream is byte-order independent and directly comparable with
  * the papers' layouts.
  *
  * Fields collect in a 64-bit accumulator; each write stores only the bytes
  * it completes, so no byte of the buffer is read back.
  */
final class BitWriter(initialCapacity: Int = 1024) {
  private var buf: Array[Byte] = new Array[Byte](math.max(16, initialCapacity))
  private var bytePos: Int     = 0  // complete bytes stored in buf
  private var acc: Long        = 0L // pending bits in the low `pending` bits; higher bits are stale
  private var pending: Int     = 0  // bits not yet stored, 0..7 between calls

  private def ensure(extraBytes: Int): Unit = {
    if (bytePos + extraBytes > buf.length) {
      buf = Arrays.copyOf(buf, math.max(buf.length * 2, bytePos + extraBytes + 16))
    }
  }

  /** Write the low `n` bits of `value`, MSB first. `n` in [0, 64]. */
  def writeBits(value: Long, n: Int): Unit = {
    require(n >= 0 && n <= 64, s"bit count out of range: $n")
    if (n > 56) { put(value >>> 32, n - 32); put(value, 32) }
    else put(value, n)
  }

  /** Append the low `n` bits of `value`, `n` in [0, 56], so that at most
    * 7 + 56 bits are ever pending in `acc`.
    */
  private def put(value: Long, n: Int): Unit = {
    acc = (acc << n) | (value & ((1L << n) - 1))
    var p = pending + n
    if (p >= 8) {
      ensure(8)
      while (p >= 8) {
        p -= 8
        buf(bytePos) = (acc >>> p).toByte
        bytePos += 1
      }
    }
    pending = p
  }

  def writeBit(b: Int): Unit = put(b.toLong, 1)

  /** Byte-align then append raw bytes verbatim. */
  def writeAlignedBytes(bytes: Array[Byte], off: Int, len: Int): Unit = {
    align()
    ensure(len)
    System.arraycopy(bytes, off, buf, bytePos, len)
    bytePos += len
  }

  /** Pad with zero bits to the next byte boundary. */
  def align(): Unit = if (pending != 0) {
    ensure(1)
    buf(bytePos) = (acc << (8 - pending)).toByte
    bytePos += 1
    pending = 0
  }

  /** Number of complete or partial bytes written so far. */
  def sizeBytes: Int = bytePos + (if (pending > 0) 1 else 0)

  def sizeBits: Long = bytePos.toLong * 8 + pending

  def toArray: Array[Byte] = {
    val out = Arrays.copyOf(buf, sizeBytes)
    if (pending > 0) out(bytePos) = (acc << (8 - pending)).toByte
    out
  }
}

/** MSB-first bit stream reader over a byte array. Mirrors [[BitWriter]].
  *
  * Bits are served from a left-aligned 64-bit window that is refilled from
  * the array only when it holds fewer bits than a read asks for. A read that
  * runs past the end of the array throws `ArrayIndexOutOfBoundsException`; it
  * never returns zero bits from beyond the stream.
  */
final class BitReader(buf: Array[Byte], startByte: Int = 0) {
  private var window: Long  = 0L        // unread bits from bit 63 down; the rest are zero
  private var avail: Int    = 0         // unread bits in window, 0..64
  private var nextByte: Int = startByte // next byte of buf to enter the window

  /** Read `n` bits (MSB first) as an unsigned value in a Long. `n` in [0, 64]. */
  def readBits(n: Int): Long = {
    require(n >= 0 && n <= 64, s"bit count out of range: $n")
    if (n > 56) (take(n - 32) << 32) | take(32)
    else take(n)
  }

  /** Read `n` bits, `n` in [0, 56], which a refill of whole bytes always
    * makes available unless the stream ends first.
    */
  private def take(n: Int): Long = {
    if (avail < n) refill(n)
    val out = (window >>> 1) >>> (63 - n) // the top n bits; 0 when n == 0
    window <<= n
    avail -= n
    out
  }

  private def refill(n: Int): Unit = {
    while (avail <= 56 && nextByte < buf.length) {
      window |= (buf(nextByte) & 0xffL) << (56 - avail)
      avail += 8
      nextByte += 1
    }
    if (avail < n)
      throw new ArrayIndexOutOfBoundsException(
        s"read of $n bits runs past the end of a ${buf.length}-byte stream")
  }

  def readBit(): Int = take(1).toInt

  /** Byte-align then copy `len` raw bytes. */
  def readAlignedBytes(len: Int): Array[Byte] = {
    align()
    val pos = bytePosition
    if (len > buf.length - pos)
      throw new ArrayIndexOutOfBoundsException(
        s"$len aligned bytes at $pos run past the end of a ${buf.length}-byte stream")
    val out = Arrays.copyOfRange(buf, pos, pos + len)
    nextByte = pos + len
    window = 0L
    avail = 0
    out
  }

  def align(): Unit = {
    val r = avail & 7
    window <<= r
    avail -= r
  }

  def bytePosition: Int = nextByte - ((avail + 7) >> 3)
}
