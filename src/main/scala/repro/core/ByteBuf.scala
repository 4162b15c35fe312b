package repro.core

import java.util.Arrays

/** Unsynchronized growable byte buffer for codec hot loops.
  *
  * `java.io.ByteArrayOutputStream#write` is synchronized per byte, which
  * dominates byte-granular encoders (FPC emits residual bytes one at a time);
  * this class is the lock-free equivalent.
  *
  * Like a [[BitWriter]], each thread keeps one buffer across calls
  * ([[Scratch.buf]]), and each stream starts with [[restart]].
  */
final class ByteBuf(initialCapacity: Int = 1024) {
  private var buf: Array[Byte] = new Array[Byte](math.max(16, initialCapacity))
  private var len: Int         = 0

  /** Empty the buffer for a new stream of about `capacity` bytes, in its
    * current array if that holds `capacity` and is kept (see [[toArray]]).
    */
  def restart(capacity: Int): this.type = {
    if (buf == null || buf.length < capacity || !Scratch.keeps(buf.length))
      buf = new Array[Byte](math.max(16, capacity))
    len = 0
    this
  }

  private def ensure(extra: Int): Unit =
    if (len + extra > buf.length)
      buf = Arrays.copyOf(buf, math.max(buf.length * 2, len + extra + 16))

  def write(b: Int): Unit = { ensure(1); buf(len) = b.toByte; len += 1 }

  def write(bytes: Array[Byte], off: Int, n: Int): Unit = {
    ensure(n)
    System.arraycopy(bytes, off, buf, len, n)
    len += n
  }

  /** The low `nBytes` bytes of `v`, least significant first. */
  def writeWordLE(v: Long, nBytes: Int): Unit = {
    ensure(nBytes)
    ByteBuf.writeWordLE(buf, len, v, nBytes)
    len += nBytes
  }

  def size: Int = len

  /** The bytes as an exact-size copy. This or [[copyTo]] ends the stream:
    * a buffer whose array grew past [[Scratch.MaxBytes]] lets go of it
    * here, and until the next `restart` it holds no array, so a second copy
    * or a write throws `NullPointerException` instead of returning zeros.
    */
  def toArray: Array[Byte] = {
    val out = Arrays.copyOf(buf, len)
    release()
    out
  }

  /** The bytes into `dest` from `off`; ends the stream as [[toArray]] does. */
  def copyTo(dest: Array[Byte], off: Int): Unit = {
    System.arraycopy(buf, 0, dest, off, len)
    release()
  }

  private def release(): Unit = if (!Scratch.keeps(buf.length)) buf = null
}

object ByteBuf {
  /** The low `nBytes` bytes of `v` at `data(off)`, least significant first. */
  def writeWordLE(data: Array[Byte], off: Int, v: Long, nBytes: Int): Unit = {
    var i = 0
    while (i < nBytes) { data(off + i) = (v >>> (8 * i)).toByte; i += 1 }
  }

  /** Reads back a word written by [[ByteBuf.writeWordLE]]. */
  def readWordLE(data: Array[Byte], off: Int, nBytes: Int): Long = {
    var v = 0L
    var i = 0
    while (i < nBytes) { v |= (data(off + i) & 0xffL) << (8 * i); i += 1 }
    v
  }
}
