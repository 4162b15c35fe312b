package repro.core

import java.lang.invoke.MethodHandles
import java.nio.ByteOrder

/** Words and their byte order: the one module that decides how a multi-byte
  * value sits in a byte array.
  *
  * [[pack]] reinterprets an FpBlock as a stream of 64-bit words, the input
  * unit of the double-only codecs (FPC/pFPC, GFC). Little-endian semantics:
  * two single-precision patterns pack into one word (low half first),
  * matching how the paper fed single-precision files to these tools.
  *
  * The fixed-width accessors ([[longLE]], [[putLongLE]], [[longBE]],
  * [[putLongBE]], [[intLE]], [[putIntLE]], [[intBE]], [[shortLE]],
  * [[putShortLE]]) load or store one word at a byte offset through an array
  * view, and throw `ArrayIndexOutOfBoundsException` for a word that does not
  * fit, as a byte loop would. [[writeWordLE]] and [[readWordLE]] serve any
  * width from 1 to 8 that a codec picks at run time, through the 4- or
  * 8-byte accessor at those widths and a byte loop at the others.
  */
object Words {
  private val ShortLE = MethodHandles.byteArrayViewVarHandle(classOf[Array[Short]], ByteOrder.LITTLE_ENDIAN)
  private val IntLE   = MethodHandles.byteArrayViewVarHandle(classOf[Array[Int]], ByteOrder.LITTLE_ENDIAN)
  private val IntBE   = MethodHandles.byteArrayViewVarHandle(classOf[Array[Int]], ByteOrder.BIG_ENDIAN)
  private val LongLE  = MethodHandles.byteArrayViewVarHandle(classOf[Array[Long]], ByteOrder.LITTLE_ENDIAN)
  private val LongBE  = MethodHandles.byteArrayViewVarHandle(classOf[Array[Long]], ByteOrder.BIG_ENDIAN)

  /** The 8 bytes at `b(i)`, least significant first. */
  def longLE(b: Array[Byte], i: Int): Long = (LongLE.get(b, i): Long)
  def putLongLE(b: Array[Byte], i: Int, v: Long): Unit = LongLE.set(b, i, v)

  /** The 8 bytes at `b(i)`, most significant first. */
  def longBE(b: Array[Byte], i: Int): Long = (LongBE.get(b, i): Long)
  def putLongBE(b: Array[Byte], i: Int, v: Long): Unit = LongBE.set(b, i, v)

  /** The 4 bytes at `b(i)`, least significant first. */
  def intLE(b: Array[Byte], i: Int): Int = (IntLE.get(b, i): Int)
  def putIntLE(b: Array[Byte], i: Int, v: Int): Unit = IntLE.set(b, i, v)

  /** The 4 bytes at `b(i)`, most significant first. */
  def intBE(b: Array[Byte], i: Int): Int = (IntBE.get(b, i): Int)

  /** The 2 bytes at `b(i)`, least significant first, as an unsigned value. */
  def shortLE(b: Array[Byte], i: Int): Int = (ShortLE.get(b, i): Short) & 0xffff
  def putShortLE(b: Array[Byte], i: Int, v: Int): Unit = ShortLE.set(b, i, v.toShort)

  def pack(block: FpBlock): Array[Long] = block.precision match {
    case Precision.Double => block.bits
    case Precision.Single =>
      val n     = block.bits.length
      val words = new Array[Long]((n + 1) / 2)
      var i = 0
      while (i < n) {
        words(i >> 1) |= (block.bits(i) & 0xffffffffL) << ((i & 1) << 5)
        i += 1
      }
      words
  }

  def unpack(words: Array[Long], precision: Precision, extent: Seq[Long]): FpBlock = {
    val n = extent.product.toInt
    precision match {
      case Precision.Double => FpBlock(precision, extent, words)
      case Precision.Single =>
        val bits = new Array[Long](n)
        var i = 0
        while (i < n) {
          bits(i) = (words(i >> 1) >>> ((i & 1) << 5)) & 0xffffffffL
          i += 1
        }
        FpBlock(precision, extent, bits)
    }
  }

  /** The low `w` bits set, the value mask of a `w`-bit pattern (1 <= w <= 64). */
  def mask(w: Int): Long = if (w == 64) -1L else (1L << w) - 1

  /** The low `w` bits of `v` read as a signed `w`-bit residual and zigzag
    * mapped (0, -1, 1, -2, ... to 0, 1, 2, 3, ...), so that a small residual
    * of either sign has few significant bits; the result fits in `w` bits.
    */
  def zigzag(v: Long, w: Int): Long = {
    val r = if (w == 64) v else (v << (64 - w)) >> (64 - w)
    (r << 1) ^ (r >> 63)
  }

  /** The signed residual of a [[zigzag]] code, sign-extended to 64 bits. */
  def unzigzag(z: Long): Long = (z >>> 1) ^ -(z & 1)

  /** The low `nBytes` bytes of `v` at `data(off)`, least significant first. */
  def writeWordLE(data: Array[Byte], off: Int, v: Long, nBytes: Int): Unit =
    if (nBytes == 8) putLongLE(data, off, v)
    else if (nBytes == 4) putIntLE(data, off, v.toInt)
    else {
      var i = 0
      while (i < nBytes) { data(off + i) = (v >>> (8 * i)).toByte; i += 1 }
    }

  /** Reads back a word written by [[writeWordLE]], as an unsigned value. */
  def readWordLE(data: Array[Byte], off: Int, nBytes: Int): Long =
    if (nBytes == 8) longLE(data, off)
    else if (nBytes == 4) intLE(data, off) & 0xffffffffL
    else {
      var v = 0L
      var i = 0
      while (i < nBytes) { v |= (data(off + i) & 0xffL) << (8 * i); i += 1 }
      v
    }
}
