package repro.core

import java.util.Arrays

/** MSB-first bit stream writer backed by a growable byte array.
  *
  * The XOR codecs (Gorilla, Chimp), fpzip's verbatim-bit tail and
  * range-coded bytes, GFC's 4-bit headers and residual bytes, and
  * nv:btcomp's packed deltas are emitted through this writer, the only
  * growable one: every other codec knows its stream's worst-case size in
  * advance. Bits are packed most-significant-first inside each byte so the
  * stream is byte-order independent and directly comparable with the
  * papers' layouts.
  *
  * Fields collect in a 64-bit accumulator. A write that completes a byte
  * stores all eight bytes of the left-aligned pending bits at once and
  * advances past the whole ones; the bytes after them are stale until the
  * next store, `align` or `toArray` overwrites them. No byte of the buffer
  * is read back, so a writer can start a new stream over the bytes of its
  * last one.
  *
  * Each thread keeps two writers across calls ([[Scratch.bits]] and
  * [[Scratch.symbols]]), and each stream starts with [[restart]]: the
  * writer keeps its array only up to [[Scratch.MaxBytes]], and `toArray` or
  * `copyTo` is the one copy that leaves the call.
  */
final class BitWriter(initialCapacity: Int = 1024) {
  private var buf: Array[Byte] = new Array[Byte](math.max(16, initialCapacity))
  private var bytePos: Int     = 0     // complete bytes stored in buf
  private var acc: Long        = 0L    // pending bits in the low `pending` bits; higher bits are stale
  private var pending: Int     = 0     // bits not yet stored, 0..7 between calls

  /** Empty the writer for a new stream of about `capacity` bytes, in its
    * current array if that holds `capacity` and is kept (see [[toArray]]).
    */
  def restart(capacity: Int): this.type = {
    if (buf == null || buf.length < capacity || !Scratch.keeps(buf.length))
      buf = new Array[Byte](math.max(16, capacity))
    bytePos = 0
    acc = 0L
    pending = 0
    this
  }

  private def ensure(extraBytes: Int): Unit = {
    if (bytePos + extraBytes > buf.length) {
      buf = Arrays.copyOf(buf, math.max(buf.length * 2, bytePos + extraBytes + 16))
    }
  }

  /** Write the low `n` bits of `value`, MSB first. `n` in [0, 64]. */
  def writeBits(value: Long, n: Int): Unit = {
    // Not `require`: its by-name message allocates a closure per call until C2 removes it.
    if (n < 0 || n > 64) throw new IllegalArgumentException(s"requirement failed: bit count out of range: $n")
    if (n > 56) { put(value >>> 32, n - 32); put(value, 32) }
    else put(value, n)
  }

  /** Append the low `n` bits of `value`, `n` in [0, 56], so that at most
    * 7 + 56 bits are ever pending in `acc`.
    */
  private def put(value: Long, n: Int): Unit = {
    acc = (acc << n) | (value & ((1L << n) - 1))
    val p = pending + n
    if (p >= 8) {
      ensure(8)
      val w = acc << (64 - p) // the p pending bits, left-aligned
      buf(bytePos)     = (w >>> 56).toByte
      buf(bytePos + 1) = (w >>> 48).toByte
      buf(bytePos + 2) = (w >>> 40).toByte
      buf(bytePos + 3) = (w >>> 32).toByte
      buf(bytePos + 4) = (w >>> 24).toByte
      buf(bytePos + 5) = (w >>> 16).toByte
      buf(bytePos + 6) = (w >>> 8).toByte
      buf(bytePos + 7) = w.toByte
      bytePos += p >>> 3
    }
    pending = p & 7
  }

  def writeBit(b: Int): Unit = put(b.toLong, 1)

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

  /** The stream as an exact-size copy. This or [[copyTo]] ends the stream:
    * a writer whose array grew past [[Scratch.MaxBytes]] lets go of it
    * here, and until the next `restart` it holds no array, so a second copy
    * or a write that stores a byte throws `NullPointerException` instead of
    * returning zeros.
    */
  def toArray: Array[Byte] = {
    val out = Arrays.copyOf(buf, sizeBytes)
    if (pending > 0) out(bytePos) = lastByte
    release()
    out
  }

  /** The stream's [[sizeBytes]] bytes, its partial last byte padded with
    * zero bits, into `dest` from `off`; ends the stream as [[toArray]] does.
    */
  def copyTo(dest: Array[Byte], off: Int): Unit = {
    System.arraycopy(buf, 0, dest, off, bytePos)
    if (pending > 0) dest(off + bytePos) = lastByte
    release()
  }

  /** The pending bits, left-aligned in a byte. */
  private def lastByte: Byte = (acc << (8 - pending)).toByte

  private def release(): Unit = if (!Scratch.keeps(buf.length)) buf = null
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
    if (n < 0 || n > 64) throw new IllegalArgumentException(s"requirement failed: bit count out of range: $n")
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

  /** Top the window up with whole bytes until it holds more than 56 bits.
    * Away from the stream's last 7 bytes, that is one 8-byte gather whose
    * trailing partial byte is masked off.
    */
  private def refill(n: Int): Unit = {
    val b = nextByte
    if (b + 8 <= buf.length) {
      val w = ((buf(b) & 0xffL) << 56) | ((buf(b + 1) & 0xffL) << 48) |
              ((buf(b + 2) & 0xffL) << 40) | ((buf(b + 3) & 0xffL) << 32) |
              ((buf(b + 4) & 0xffL) << 24) | ((buf(b + 5) & 0xffL) << 16) |
              ((buf(b + 6) & 0xffL) << 8) | (buf(b + 7) & 0xffL)
      val r = (64 - avail) & 7 // low bits of w past the last whole byte that fits
      window |= (w >>> avail) & (-1L << r)
      nextByte = b + ((64 - avail) >>> 3)
      avail = 64 - r
    } else {
      while (avail <= 56 && nextByte < buf.length) {
        window |= (buf(nextByte) & 0xffL) << (56 - avail)
        avail += 8
        nextByte += 1
      }
      if (avail < n)
        throw new ArrayIndexOutOfBoundsException(
          s"read of $n bits runs past the end of a ${buf.length}-byte stream")
    }
  }

  def readBit(): Int = take(1).toInt

  def align(): Unit = {
    val r = avail & 7
    window <<= r
    avail -= r
  }

  def bytePosition: Int = nextByte - ((avail + 7) >> 3)
}
