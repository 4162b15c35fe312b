package repro.lz

import java.lang.ref.Cleaner

import net.jpountz.lz4.{LZ4Exception, LZ4Factory}
import com.github.luben.zstd.{Zstd, ZstdCompressCtx, ZstdDecompressCtx, ZstdException}

import repro.core.KeptArray

/** A dictionary coder behind bitshuffle and nvCOMP::LZ4: one shell for both
  * libraries. The shell owns what the two share: the worst-case output
  * buffer, kept per thread across calls (see [[repro.core.KeptArray]]), the
  * exact-size copy each part leaves as, and the decode contract. A back end
  * supplies only its library's calls.
  *
  * Back ends are objects, so a codec holding one serializes as a reference
  * to it and never carries a thread's buffer or context.
  */
sealed abstract class LzBackend(name: String) extends Serializable {
  private val output = KeptArray.perThread[Byte](1)

  /** The most bytes [[encode]] writes for `len` input bytes. */
  protected def bound(len: Int): Int

  /** Code `in(off until off + len)` into `out(0 until max)`; the bytes written. */
  protected def encode(in: Array[Byte], off: Int, len: Int, out: Array[Byte], max: Int): Int

  /** Decode `in(off until off + len)` into `out(outOff until outOff + outLen)`;
    * the bytes decoded. A malformed part raises [[malformed]].
    */
  protected def decode(in: Array[Byte], off: Int, len: Int, out: Array[Byte], outOff: Int, outLen: Int): Int

  protected final def malformed(len: Int, cause: Throwable): Nothing =
    throw new IllegalArgumentException(s"bad $name part of $len bytes", cause)

  /** The coded part of `in(off until off + len)`. */
  def compress(in: Array[Byte], off: Int, len: Int): Array[Byte] = {
    val max = bound(len)
    val buf = output.get.atLeast(max)
    java.util.Arrays.copyOf(buf, encode(in, off, len, buf, max))
  }

  def compress(in: Array[Byte]): Array[Byte] = compress(in, 0, in.length)

  /** Decode the part `in(off until off + len)` into
    * `out(outOff until outOff + outLen)`. A part that is malformed, or that
    * decodes to more or fewer than `outLen` bytes, raises
    * `IllegalArgumentException`.
    */
  def decompress(in: Array[Byte], off: Int, len: Int, out: Array[Byte], outOff: Int, outLen: Int): Unit = {
    val n = decode(in, off, len, out, outOff, outLen)
    if (n != outLen) throw new IllegalArgumentException(s"$name part decoded to $n bytes where $outLen were expected")
  }

  def decompress(in: Array[Byte], outLen: Int): Array[Byte] = {
    val out = new Array[Byte](outLen)
    decompress(in, 0, in.length, out, 0, outLen)
    out
  }
}

/** LZ4 block codec via lz4-java (already on the Spark classpath).
  *
  * Used by bitshuffle::LZ4 and the nvCOMP::LZ4 substitute. We use the fast
  * compressor — bitshuffle's C binding does the same — so compression and
  * decompression throughput stay in the paper's observed balance. Decoding
  * uses the safe decompressor, which is bounded by the part's length.
  */
object Lz4Backend extends LzBackend("LZ4") {
  private val factory      = LZ4Factory.fastestJavaInstance()
  private val compressor   = factory.fastCompressor()
  private val decompressor = factory.safeDecompressor()

  protected def bound(len: Int): Int = compressor.maxCompressedLength(len)

  protected def encode(in: Array[Byte], off: Int, len: Int, out: Array[Byte], max: Int): Int =
    compressor.compress(in, off, len, out, 0, max)

  protected def decode(in: Array[Byte], off: Int, len: Int, out: Array[Byte], outOff: Int, outLen: Int): Int =
    try decompressor.decompress(in, off, len, out, outOff, outLen)
    catch { case e: LZ4Exception => malformed(len, e) }
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
object ZstdBackend extends LzBackend("zstd") {
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

  protected def bound(len: Int): Int = Zstd.compressBound(len.toLong).toInt

  protected def encode(in: Array[Byte], off: Int, len: Int, out: Array[Byte], max: Int): Int =
    contexts.get.compress.compressByteArray(out, 0, max, in, off, len)

  protected def decode(in: Array[Byte], off: Int, len: Int, out: Array[Byte], outOff: Int, outLen: Int): Int =
    try contexts.get.decompress.decompressByteArray(out, outOff, outLen, in, off, len)
    catch { case e: ZstdException => malformed(len, e) }
}
