package repro.lz

import java.lang.ref.Cleaner

import net.jpountz.lz4.{LZ4Exception, LZ4Factory}
import com.github.luben.zstd.{Zstd, ZstdCompressCtx, ZstdDecompressCtx, ZstdException}

/** LZ4 block codec via lz4-java (already on the Spark classpath).
  *
  * Used by bitshuffle::LZ4 and the nvCOMP::LZ4 substitute. We use the fast
  * compressor — bitshuffle's C binding does the same — so compression and
  * decompression throughput stay in the paper's observed balance. Decoding
  * uses the safe decompressor, which is bounded by the part's length.
  */
object Lz4Backend {
  private val factory = LZ4Factory.fastestJavaInstance()

  /** The LZ4 block of `in(off until off + len)`. */
  def compress(in: Array[Byte], off: Int, len: Int): Array[Byte] = {
    val c   = factory.fastCompressor()
    val max = c.maxCompressedLength(len)
    val buf = new Array[Byte](max)
    val n   = c.compress(in, off, len, buf, 0, max)
    java.util.Arrays.copyOf(buf, n)
  }

  def compress(in: Array[Byte]): Array[Byte] = compress(in, 0, in.length)

  /** Decode the LZ4 block `in(off until off + len)` into
    * `out(outOff until outOff + outLen)`. A block that is malformed, or that
    * decodes to more or fewer than `outLen` bytes, raises
    * `IllegalArgumentException`.
    */
  def decompress(in: Array[Byte], off: Int, len: Int, out: Array[Byte], outOff: Int, outLen: Int): Unit = {
    val n =
      try factory.safeDecompressor().decompress(in, off, len, out, outOff, outLen)
      catch { case e: LZ4Exception => throw new IllegalArgumentException(s"bad LZ4 part of $len bytes", e) }
    if (n != outLen) throw new IllegalArgumentException(s"LZ4 part decoded to $n bytes where $outLen were expected")
  }

  def decompress(in: Array[Byte], outLen: Int): Array[Byte] = {
    val out = new Array[Byte](outLen)
    decompress(in, 0, in.length, out, 0, outLen)
    out
  }
}

/** zstd block codec via zstd-jni (already on the Spark classpath).
  *
  * Level 3 matches bitshuffle's default; the paper tunes "for best CR" but
  * levels beyond ~6 cost orders of magnitude in CT for single-digit-% CR on
  * floating-point residues, so we keep the library default the reference
  * implementation ships with.
  *
  * Each thread keeps one compression and one decompression context across
  * calls: creating them costs more than coding a 4 KiB page. They live here
  * behind a `ThreadLocal`, never in a codec field, because a codec is
  * `Serializable` and shared by every thread that calls it. zstd starts every
  * frame from the context's parameters, so reuse changes no output, and a
  * call that fails leaves nothing behind for the next one.
  */
object ZstdBackend {
  val Level = 3

  private final class Contexts {
    val compress: ZstdCompressCtx     = new ZstdCompressCtx().setLevel(Level)
    val decompress: ZstdDecompressCtx = new ZstdDecompressCtx
  }

  /** Frees a thread's native contexts once its `Contexts` is unreachable,
    * after the thread ends: zstd-jni's contexts have no finalizer.
    */
  private val cleaner = Cleaner.create()

  private val contexts = ThreadLocal.withInitial[Contexts] { () =>
    val ctx = new Contexts
    val (c, d) = (ctx.compress, ctx.decompress)
    cleaner.register(ctx, () => { c.close(); d.close() })
    ctx
  }

  /** The zstd frame of `in(off until off + len)`. */
  def compress(in: Array[Byte], off: Int, len: Int): Array[Byte] = {
    val buf = new Array[Byte](Zstd.compressBound(len.toLong).toInt)
    val n   = contexts.get.compress.compressByteArray(buf, 0, buf.length, in, off, len)
    java.util.Arrays.copyOf(buf, n)
  }

  def compress(in: Array[Byte]): Array[Byte] = compress(in, 0, in.length)

  /** Decode the zstd frame `in(off until off + len)` into
    * `out(outOff until outOff + outLen)`. A frame that is malformed, or that
    * decodes to more or fewer than `outLen` bytes, raises
    * `IllegalArgumentException`.
    */
  def decompress(in: Array[Byte], off: Int, len: Int, out: Array[Byte], outOff: Int, outLen: Int): Unit = {
    val n =
      try contexts.get.decompress.decompressByteArray(out, outOff, outLen, in, off, len)
      catch { case e: ZstdException => throw new IllegalArgumentException(s"bad zstd part of $len bytes", e) }
    if (n != outLen) throw new IllegalArgumentException(s"zstd part decoded to $n bytes where $outLen were expected")
  }

  def decompress(in: Array[Byte], outLen: Int): Array[Byte] = {
    val out = new Array[Byte](outLen)
    decompress(in, 0, in.length, out, 0, outLen)
    out
  }
}
