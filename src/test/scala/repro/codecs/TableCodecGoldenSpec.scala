package repro.codecs

import java.util.zip.CRC32

import repro.SparkSpec
import repro.core.{Codec, FpBlock}
import repro.codecs.cpu.{Chimp, Pfpc, Spdp}

/** Pins the exact compressed bytes of the codecs that keep per-thread hash or
  * index tables across calls (pFPC at 1, 4 and 8 threads, SPDP through LZa6,
  * Chimp) by the CRC32 of each stream. The inputs include 4 KiB pages and
  * tiny blocks, which take pFPC's walk-back reset path and meet the stale
  * slots of LZa6's and Chimp's position tables, and one mixed large/small
  * sequence on one thread: a slot read wrongly after any call would change
  * the bytes of a later one.
  */
class TableCodecGoldenSpec extends SparkSpec {
  import TableCodecGoldenSpec._

  for ((inputName, block) <- Inputs; ((label, codec), i) <- Codecs.zipWithIndex)
    test(s"$label stream of $inputName matches its pinned CRC32") {
      assert(crc32(codec.compress(block).bytes) == Pinned(inputName)(i))
    }

  for (((label, codec), i) <- Codecs.zipWithIndex)
    test(s"$label leaves no residue across a large/small call sequence on one thread") {
      assert(sequenceCrc(codec) == PinnedSequence(i))
    }
}

object TableCodecGoldenSpec {
  val Codecs: Seq[(String, Codec)] = Seq(
    "pFPC(1)" -> new Pfpc(1), "pFPC(4)" -> new Pfpc(4), "pFPC(8)" -> new Pfpc(8),
    "SPDP" -> new Spdp, "Chimp" -> new Chimp)

  val PinnedCodecs: Set[String] = Codecs.map(_._2.name).toSet

  val Inputs: Seq[(String, FpBlock)] = TestInputs.corpus ++ Seq(
    "page-512-double"  -> TestInputs.smooth1dD(512),
    "page-1024-single" -> TestInputs.runsS(1024),
    "tail-1-double"    -> TestInputs.smooth1dD(1),
    "tail-7-double"    -> TestInputs.smooth1dD(7),
    "tail-1-single"    -> TestInputs.randomS(1),
    "tail-7-single"    -> TestInputs.randomS(7),
  )

  /** Large blocks (pFPC's tables refilled in full) interleaved with small
    * ones (reset slot by slot), each compressed then decompressed on the
    * calling thread. The integer-valued pair targets Chimp: a stale index
    * only changes its stream for a value whose low 14 bits are zero, met
    * before any other such value in the block.
    */
  val Sequence: Seq[FpBlock] = Seq(
    TestInputs.randomD(70000), TestInputs.smooth1dD(512), TestInputs.runsS(1024),
    TestInputs.smooth1dD(600), TestInputs.smooth1dD(70000), TestInputs.randomS(7),
    FpBlock.fromDoubles(Array.tabulate(1000)(i => (i % 64).toDouble)),
    FpBlock.fromDoubles(Array(0.1, 0.3, 2.0, 0.7, 5.0, 0.9, 1.5)),
    TestInputs.quantizedD(32768, 2), TestInputs.smooth1dD(512))

  def crc32(bytes: Array[Byte]): String = {
    val crc = new CRC32
    crc.update(bytes)
    f"${crc.getValue}%08x"
  }

  /** CRC32 over the concatenated streams of `Sequence`; every block must
    * also roundtrip bit-exactly.
    */
  def sequenceCrc(codec: Codec): String = {
    val crc = new CRC32
    for (block <- Sequence) {
      val bytes = codec.compress(block).bytes
      crc.update(bytes)
      val back = codec.decompress(bytes, block.precision, block.extent).block
      require(back.bits.sameElements(block.bits), s"${codec.name} failed to roundtrip ${block.n} values")
    }
    f"${crc.getValue}%08x"
  }

  /** input -> CRC32 of the (pFPC(1), pFPC(4), pFPC(8), SPDP, Chimp) streams,
    * recorded before the codecs kept their tables across calls.
    */
  val Pinned: Map[String, Seq[String]] = Map(
    "smooth-1d-double"      -> Seq("4312f64a", "4634bcc3", "a9b30ec3", "34f84aff", "adbe467a"),
    "smooth-2d-double"      -> Seq("6c9a667a", "16ec7daa", "1fd55456", "463d0f79", "26675fb3"),
    "smooth-3d-single"      -> Seq("e89d5763", "c9dabf82", "ce99b58b", "858628c9", "e4f70bdc"),
    "random-double"         -> Seq("1780b75a", "0aff5147", "af4faa01", "89a807cf", "3b2ec440"),
    "random-single"         -> Seq("1f6534e2", "0fd08456", "8be78cc4", "a9a61920", "4bab256c"),
    "specials-double"       -> Seq("c41f5c8f", "e60527ad", "101bcc6d", "bbc03b78", "daee08c7"),
    "specials-single"       -> Seq("a61c273f", "99770a28", "51429368", "c95ee77f", "6afd7ed1"),
    "quantized-2dec-double" -> Seq("95adfadf", "646d1b73", "9a3ce411", "747f66dd", "cb56db87"),
    "constant-double"       -> Seq("fc01c340", "633dbfb4", "6156fefe", "3f33fc8c", "0b5dbd65"),
    "runs-single"           -> Seq("be7380bb", "6baf54d3", "a183b6fa", "37b39b40", "88938ad3"),
    "tiny-double"           -> Seq("a56e73fe", "60963822", "60963822", "ad3d52e0", "d915fe0d"),
    "single-value"          -> Seq("f672a825", "f672a825", "f672a825", "fe89b780", "5a8c475a"),
    "block-multiple-4096"   -> Seq("62a1e62b", "20290898", "9c65e586", "0c67f0dc", "4463faaa"),
    "page-512-double"       -> Seq("9cd9bdf9", "e975e382", "c3f4b6e9", "ff7de994", "4a279ccf"),
    "page-1024-single"      -> Seq("de954c67", "5d282126", "402f3e81", "2c97ebf5", "3931d089"),
    "tail-1-double"         -> Seq("9c175861", "9c175861", "9c175861", "7af3162c", "6522df69"),
    "tail-7-double"         -> Seq("07a7eca9", "f67eea3e", "e3d0e474", "b44c15e0", "06ebdaaa"),
    "tail-1-single"         -> Seq("a316a45e", "a316a45e", "a316a45e", "c113ae29", "c7829419"),
    "tail-7-single"         -> Seq("2223195a", "f8057651", "f8057651", "5f06be45", "a2cdd0ce"),
  )

  /** CRC32 of `Sequence`, per codec in `Codecs` order. */
  val PinnedSequence: Seq[String] =
    Seq("2e852027", "dd99dc58", "a3f9ea10", "5f22509e", "2b456a7c")
}
