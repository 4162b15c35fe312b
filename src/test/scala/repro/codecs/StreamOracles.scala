package repro.codecs

import org.scalacheck.Prop

import repro.codecs.cpu.{BitshuffleBase, BitshuffleLz4, BitshuffleZstd, BytePathBitshuffle, BytewisePfpc, Pfpc, Spdp}
import repro.codecs.gpu.NvLz4
import repro.core.{Codec, Compressed, Decompressed, FpBlock, Frame, FrameOf, Precision, WorkProfile}

/** The registry of codecs with a former implementation kept as their
  * oracle, and the one property they are held to: for [[CodecGen]]'s blocks
  * each writes the oracle's stream, and its `WorkProfile` where the oracle
  * reports one; it decodes the oracle's stream bit-exactly, and where the
  * oracle also decodes, to the oracle's values and work.
  */
object StreamOracles {
  /** A subject codec and its oracle: the oracle's stream, with its work
    * where it reports one, and the oracle's decoder where it has one.
    */
  final case class Pair(label: String, subject: Codec, encode: FpBlock => (Array[Byte], Option[WorkProfile]),
                        decode: Option[(Array[Byte], Precision, Seq[Long]) => Decompressed] = None) {
    override def toString: String = label

    /** Why the subject disagrees with the oracle on `b`, or None. */
    def failure(b: FpBlock): Option[String] = {
      val comp         = subject.compress(b)
      val (want, work) = encode(b)
      val back         = subject.decompress(want, b.precision, b.extent)
      val theirs       = decode.map(_(want, b.precision, b.extent))
      if (!java.util.Arrays.equals(comp.bytes, want)) Some("encode differs")
      else if (work.exists(_ != comp.work)) Some("encode work differs")
      else if (!java.util.Arrays.equals(back.block.bits, b.bits) || back.block.extent != b.extent)
        Some("decode of the oracle's stream is lossy")
      else if (theirs.exists(o => !java.util.Arrays.equals(o.block.bits, back.block.bits) || o.work != back.work))
        Some("decode differs from the oracle's")
      else None
    }
  }

  /** Every pair of `pairs` agrees on each drawn block. */
  def property(pairs: Seq[Pair]): Prop = Prop.forAllNoShrink(CodecGen.drawn) { d =>
    val failure = pairs.collectFirst(Function.unlift(p => p.failure(d.block).map(f => s"$p: $f")))
    Prop.propBoolean(failure.isEmpty) :| failure.getOrElse("")
  }

  private def reported(encode: FpBlock => Compressed): FpBlock => (Array[Byte], Option[WorkProfile]) =
    b => { val c = encode(b); (c.bytes, Some(c.work)) }

  def pfpc(threads: Int): Pair =
    Pair(s"pFPC($threads)", new Pfpc(threads), b => (BytewisePfpc.compress(b, threads), None))

  def bitshuffle(subject: BitshuffleBase, backend: BytePathBitshuffle.Backend): Pair =
    Pair(s"${subject.name}(${subject.threads})", subject, reported(BytePathBitshuffle.compress(backend, _)),
         Some(BytePathBitshuffle.decompress(backend, _, _, _)))

  /** nv:LZ4 as it was: every 64 KiB range of the raw bytes copied, then
    * coded by the library's fast compressor.
    */
  def copiedPartsLz4(b: FpBlock): Compressed = {
    val raw = b.toBytes
    val parts = Frame.fixedRanges(raw.length, 65536).map { case (from, until) =>
      BytePathBitshuffle.encode(BytePathBitshuffle.Lz4, java.util.Arrays.copyOfRange(raw, from, until))
    }
    val bytes = FrameOf(parts)
    Compressed(bytes, WorkProfile(raw.length.toLong * 4, bytes.length, raw.length.toLong * 12, divergent = true))
  }

  val PfpcPairs: Seq[Pair] = (1 to 4).map(pfpc)

  val SpdpPair: Pair = Pair("SPDP", new Spdp, reported(ThreePassSpdp.compress), Some(ThreePassSpdp.decompress))

  val NvLz4Pair: Pair = Pair("nv:LZ4", new NvLz4, reported(copiedPartsLz4))

  /** shf+LZ4 and shf+zstd at `threads`, with nv:LZ4, whose oracle codes through the byte path's LZ4. */
  def bitshufflePairs(threads: Int): Seq[Pair] =
    Seq(bitshuffle(new BitshuffleLz4(threads), BytePathBitshuffle.Lz4),
        bitshuffle(new BitshuffleZstd(threads), BytePathBitshuffle.Zstd), NvLz4Pair)
}
