package repro.lz

import java.lang.ref.Cleaner

import net.jpountz.lz4.{LZ4Exception, LZ4Factory}
import com.github.luben.zstd.{Zstd, ZstdCompressCtx, ZstdDecompressCtx, ZstdException}

import repro.core.{Frame, Parallel, Scratch, Words}

/** A dictionary coder behind bitshuffle and nvCOMP::LZ4: one shell for both
  * libraries. The shell owns what the two codecs share: their frames of
  * fixed-size parts, each staged in the coding thread's
  * [[repro.core.Scratch.staged]] array and coded straight into its region of
  * the frame, and the decode contract. A back end supplies only its
  * library's calls.
  *
  * Back ends are objects, so a codec holding one serializes as a reference
  * to it and never carries a thread's table or context.
  */
sealed abstract class LzBackend(name: String) extends Serializable {
  /** The most bytes [[encode]] writes for `len` input bytes. */
  private[lz] def bound(len: Int): Int

  /** Code `in(off until off + len)` into `out` from `outOff`, which has room
    * for `bound(len)` bytes; the bytes written. It may write anywhere in that
    * room (zstd writes past its stream's end), and nowhere outside it.
    */
  private[lz] def encode(in: Array[Byte], off: Int, len: Int, out: Array[Byte], outOff: Int): Int

  /** Decode `in(off until off + len)` into `out(outOff until outOff + outLen)`;
    * the bytes decoded. A malformed part raises [[malformed]].
    */
  protected def decode(in: Array[Byte], off: Int, len: Int, out: Array[Byte], outOff: Int, outLen: Int): Int

  protected final def malformed(len: Int, cause: Throwable): Nothing =
    throw new IllegalArgumentException(s"bad $name part of $len bytes", cause)

  /** The frame of the `partBytes`-byte parts of `rawLen` raw bytes, coded on
    * `threads` threads, each part after `stage(from, until, raw)` writes its
    * bytes into `raw` from 0.
    */
  def compressParts(rawLen: Int, partBytes: Int, threads: Int)(stage: (Int, Int, Array[Byte]) => Unit): Array[Byte] =
    Frame.write(Frame.fixedRanges(rawLen, partBytes), threads) { case (from, until) => bound(until - from) } {
      case ((from, until), out, off) =>
        val raw = Scratch.get.staged.atLeast(until - from)
        stage(from, until, raw)
        encode(raw, 0, until - from, out, off)
    }

  /** The inverse of [[compressParts]]: `unstage(from, until, raw)` reads
    * raw bytes `from until until` from `raw` from 0.
    */
  def decompressParts(data: Array[Byte], rawLen: Int, partBytes: Int, threads: Int)(
      unstage: (Int, Int, Array[Byte]) => Unit): Unit = {
    val ranges  = Frame.fixedRanges(rawLen, partBytes)
    val offsets = Frame.read(data, ranges.length, ranges.length)
    Parallel.map(ranges.indices, threads) { i =>
      val (from, until) = ranges(i)
      val raw = Scratch.get.staged.atLeast(until - from)
      decompress(data, offsets(i), offsets(i + 1) - offsets(i), raw, 0, until - from)
      unstage(from, until, raw)
    }
  }

  /** The coded `in`, outside a frame: an exact-size copy of its stream. */
  def compress(in: Array[Byte]): Array[Byte] = {
    val out = Scratch.get.coded.atLeast(bound(in.length))
    java.util.Arrays.copyOf(out, encode(in, 0, in.length, out, 0))
  }

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

/** LZ4 block codec, used by bitshuffle::LZ4 and the nvCOMP::LZ4 substitute.
  * It writes the streams of lz4-java's fast Java compressor (LZ4's fast
  * mode, which bitshuffle's C binding also uses), so that compression and
  * decompression throughput stay in the paper's observed balance.
  *
  * Inputs shorter than 65 547 bytes (lz4-java's `LZ4_64K_LIMIT`), which
  * covers every part a codec writes, go to [[compress64k]]: our port of
  * `LZ4JavaUnsafeCompressor.compress64k` from lz4-java 1.8.0 (Apache
  * License 2.0; Copyright Adrien Grand and the lz4-java contributors),
  * itself a port of the LZ4 library's fast block compressor (BSD 2-Clause
  * License; Copyright Yann Collet). It writes the same bytes, but keeps its
  * 8 192-slot hash table in the thread's [[repro.core.Scratch.positions]]
  * where lz4-java allocates and zeroes a `short[8192]` on every call: a
  * stale slot reads as offset 0, as a zero slot of lz4-java's fresh table
  * does. Longer inputs (only perfbench's `lz.lz4` probe on whole
  * blocks sends them) go to lz4-java's fast compressor, whose general coder
  * takes over at the same split. The port's words are little-endian, as
  * lz4-java's Unsafe instance reads them on a little-endian host, through
  * [[repro.core.Words]]: the hashed 4-byte words, the 8-byte literal copies
  * and match compares, and the format's 2-byte match offsets.
  *
  * Decoding uses lz4-java's safe decompressor, which is bounded by the
  * part's length.
  */
object Lz4Backend extends LzBackend("LZ4") {
  private val factory      = LZ4Factory.fastestJavaInstance()
  private val compressor   = factory.fastCompressor()
  private val decompressor = factory.safeDecompressor()

  /** lz4-java's `LZ4Constants`. */
  private final val Limit64k     = 65547
  private final val MinMatch     = 4
  private final val LastLiterals = 5
  private final val MfLimit      = 12
  private final val MinLength    = 13
  private final val HashLog64k   = 13
  private final val SkipStrength = 6
  private final val MlBits       = 4
  private final val Mask4        = 15 // ML_MASK and RUN_MASK

  private[lz] def bound(len: Int): Int = compressor.maxCompressedLength(len)

  private[lz] def encode(in: Array[Byte], off: Int, len: Int, out: Array[Byte], outOff: Int): Int =
    if (len < Limit64k) compress64k(in, off, len, out, outOff) - outOff
    else compressor.compress(in, off, len, out, outOff, bound(len))

  protected def decode(in: Array[Byte], off: Int, len: Int, out: Array[Byte], outOff: Int, outLen: Int): Int =
    try decompressor.decompress(in, off, len, out, outOff, outLen)
    catch { case e: LZ4Exception => malformed(len, e) }

  private def hash64k(word: Int): Int = (word * -1640531535) >>> (32 - HashLog64k)

  /** Code `src(srcOff until srcOff + srcLen)`, `srcLen` below [[Limit64k]],
    * into `dest` from `destOff`, which has room for `bound(srcLen)` bytes;
    * the end of the stream. Positions fit the 16 bits of lz4-java's slots:
    * none past `srcLen - MfLimit` is hashed.
    */
  private def compress64k(src: Array[Byte], srcOff: Int, srcLen: Int, dest: Array[Byte], destOff: Int): Int = {
    val srcEnd = srcOff + srcLen
    if (srcLen < MinLength) return lastLiterals(src, srcOff, srcEnd, dest, destOff)
    val srcLimit = srcEnd - LastLiterals
    val mfLimit  = srcEnd - MfLimit
    val table    = Scratch.get.positions
    val toSlot   = table.base(srcLen, 1 << HashLog64k) - srcOff // a slot holds its position in `src` plus this
    val slots    = table.slots
    var anchor   = srcOff
    var sOff     = srcOff + 1
    var dOff     = destOff

    while (sOff < mfLimit) {
      // Find a match, probing further apart the longer none is found.
      var forwardOff    = sOff
      var step          = 1
      var searchMatchNb = 1 << SkipStrength
      var matchOff      = 0
      var word          = 0
      do {
        sOff = forwardOff
        forwardOff += step
        step = searchMatchNb >>> SkipStrength
        searchMatchNb += 1
        if (forwardOff > mfLimit) return lastLiterals(src, anchor, srcEnd, dest, dOff)
        word = Words.intLE(src, sOff)
        val h = hash64k(word)
        matchOff = math.max(slots(h) - toSlot, srcOff) // a stale slot: offset 0
        slots(h) = sOff + toSlot
      } while (Words.intLE(src, matchOff) != word)

      // Extend the match backwards over the pending literals.
      while (matchOff > srcOff && sOff > anchor && src(matchOff - 1) == src(sOff - 1)) {
        matchOff -= 1
        sOff -= 1
      }

      // The token, written once its match length is known, then the literals.
      val runLen   = sOff - anchor
      var tokenOff = dOff
      var token    = math.min(runLen, Mask4) << MlBits
      dOff = if (runLen >= Mask4) writeLen(runLen - Mask4, dest, dOff + 1) else dOff + 1
      // lz4-java's wild copy: whole 8-byte words. At least 8 bytes follow
      // the literals (an offset, then at least a token and 5 last
      // literals), which overwrite the excess.
      var k = 0
      while (k < runLen) { Words.putLongLE(dest, dOff + k, Words.longLE(src, anchor + k)); k += 8 }
      dOff += runLen

      // Matches, each followed at once by the next one found where it ends.
      var matching = true
      while (matching) {
        Words.putShortLE(dest, dOff, sOff - matchOff)
        dOff += 2
        sOff += MinMatch
        val matchLen = commonBytes(src, matchOff + MinMatch, sOff, srcLimit)
        sOff += matchLen
        dest(tokenOff) = (token | math.min(matchLen, Mask4)).toByte
        if (matchLen >= Mask4) dOff = writeLen(matchLen - Mask4, dest, dOff)

        if (sOff > mfLimit) matching = false // the rest are last literals
        else {
          slots(hash64k(Words.intLE(src, sOff - 2))) = sOff - 2 + toSlot
          word = Words.intLE(src, sOff)
          val h = hash64k(word)
          matchOff = math.max(slots(h) - toSlot, srcOff)
          slots(h) = sOff + toSlot
          matching = Words.intLE(src, matchOff) == word
          if (matching) { tokenOff = dOff; token = 0; dOff += 1 }
        }
      }
      anchor = sOff
      sOff += 1
    }
    lastLiterals(src, anchor, srcEnd, dest, dOff)
  }

  /** The literals `src(anchor until srcEnd)` as the last sequence at
    * `dest(dOff)`; the end of the stream.
    */
  private def lastLiterals(src: Array[Byte], anchor: Int, srcEnd: Int, dest: Array[Byte], dOff: Int): Int = {
    val runLen = srcEnd - anchor
    var d      = dOff + 1
    if (runLen >= Mask4) {
      dest(dOff) = (Mask4 << MlBits).toByte
      d = writeLen(runLen - Mask4, dest, d)
    } else dest(dOff) = (runLen << MlBits).toByte
    System.arraycopy(src, anchor, dest, d, runLen)
    d + runLen
  }

  /** The bytes at `ref` and `sOff` that match, up to `limit`, compared a
    * word at a time while whole words fit.
    */
  private def commonBytes(src: Array[Byte], ref: Int, sOff: Int, limit: Int): Int = {
    var r = ref
    var s = sOff
    while (s <= limit - 8) {
      val diff = Words.longLE(src, s) ^ Words.longLE(src, r)
      if (diff != 0) return s - sOff + (java.lang.Long.numberOfTrailingZeros(diff) >>> 3)
      r += 8
      s += 8
    }
    while (s < limit && src(r) == src(s)) { r += 1; s += 1 }
    s - sOff
  }

  /** A length's extension bytes: 255s, then the rest. */
  private def writeLen(len: Int, dest: Array[Byte], dOff: Int): Int = {
    var l = len
    var d = dOff
    while (l >= 255) { dest(d) = -1; d += 1; l -= 255 }
    dest(d) = l.toByte
    d + 1
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
  * calls: creating them costs more than coding a 4 KiB page. They hold
  * native memory, which a `Cleaner` frees once the thread ends, so they live
  * here behind their own `ThreadLocal`, not in [[repro.core.Scratch]].
  * zstd starts every
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

  private[lz] def bound(len: Int): Int = Zstd.compressBound(len.toLong).toInt

  private[lz] def encode(in: Array[Byte], off: Int, len: Int, out: Array[Byte], outOff: Int): Int =
    contexts.get.compress.compressByteArray(out, outOff, bound(len), in, off, len)

  protected def decode(in: Array[Byte], off: Int, len: Int, out: Array[Byte], outOff: Int, outLen: Int): Int =
    try contexts.get.decompress.decompressByteArray(out, outOff, outLen, in, off, len)
    catch { case e: ZstdException => malformed(len, e) }
}
