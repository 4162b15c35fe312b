package repro.core

import java.util.Arrays

/** Unsynchronized growable byte buffer for codec hot loops.
  *
  * `java.io.ByteArrayOutputStream#write` is synchronized per byte, which
  * dominates byte-granular encoders (FPC emits residual bytes one at a time);
  * this class is the lock-free equivalent.
  */
final class ByteBuf(initialCapacity: Int = 1024) {
  private var buf: Array[Byte] = new Array[Byte](math.max(16, initialCapacity))
  private var len: Int         = 0

  private def ensure(extra: Int): Unit =
    if (len + extra > buf.length)
      buf = Arrays.copyOf(buf, math.max(buf.length * 2, len + extra + 16))

  def write(b: Int): Unit = { ensure(1); buf(len) = b.toByte; len += 1 }

  def write(bytes: Array[Byte]): Unit = write(bytes, 0, bytes.length)

  def write(bytes: Array[Byte], off: Int, n: Int): Unit = {
    ensure(n)
    System.arraycopy(bytes, off, buf, len, n)
    len += n
  }

  def writeIntLE(v: Int): Unit = {
    ensure(4)
    buf(len) = v.toByte
    buf(len + 1) = (v >>> 8).toByte
    buf(len + 2) = (v >>> 16).toByte
    buf(len + 3) = (v >>> 24).toByte
    len += 4
  }

  /** The low `nBytes` bytes of `v`, least significant first. */
  def writeWordLE(v: Long, nBytes: Int): Unit = {
    ensure(nBytes)
    var i = 0
    while (i < nBytes) { buf(len + i) = (v >>> (8 * i)).toByte; i += 1 }
    len += nBytes
  }

  def size: Int = len

  def toArray: Array[Byte] = Arrays.copyOf(buf, len)
}

object ByteBuf {
  /** Reads back a word written by [[ByteBuf.writeWordLE]]. */
  def readWordLE(data: Array[Byte], off: Int, nBytes: Int): Long = {
    var v = 0L
    var i = 0
    while (i < nBytes) { v |= (data(off + i) & 0xffL) << (8 * i); i += 1 }
    v
  }
}
