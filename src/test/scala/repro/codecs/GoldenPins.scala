package repro.codecs

import java.util.zip.CRC32

import repro.SparkSpec
import repro.core.{Codec, CodecRegistry, FpBlock}
import repro.codecs.cpu.{BitshuffleLz4, BitshuffleZstd, Buff, Chimp, Fpzip, Gorilla, NdzipCpu, Pfpc, Spdp}
import repro.codecs.gpu.{Gfc, Mpc, NdzipGpu, NvBitcomp, NvLz4}

/** The stream of every registered codec, pinned by its CRC32 over named
  * inputs: a change to any stream format moves a CRC, and with it the
  * compression ratios the tables report. Each group of codecs is checked by
  * the suite that extends [[PinnedStreamSpec]] with it.
  */
object GoldenPins {
  def crc32(bytes: Array[Byte]): String = {
    val crc = new CRC32
    crc.update(bytes)
    f"${crc.getValue}%08x"
  }

  /** The roundtrip corpus; tails of 1, 7 and 1 025 values (MPC chunks that
    * are not a multiple of the word size); 4 KiB pages of each precision;
    * several 64 KiB parts with a short last one; an ndzip grid with border
    * slabs on every axis; 3-D blocks for fpzip's Lorenzo predictor;
    * 40 000-value walks (several nv:btcomp chunks, full-width GFC residuals);
    * and one input per BUFF branch.
    */
  lazy val Inputs: Map[String, FpBlock] = (TestInputs.corpus ++ Seq(
    "tail-1-double"             -> TestInputs.smooth1dD(1),
    "tail-7-double"             -> TestInputs.smooth1dD(7),
    "tail-1025-double"          -> TestInputs.smooth1dD(1025),
    "tail-1-single"             -> TestInputs.randomS(1),
    "tail-7-single"             -> TestInputs.randomS(7),
    "tail-1025-single"          -> TestInputs.smooth3dS(1, 1, 1025),
    "page-512-double"           -> TestInputs.smooth1dD(512),
    "page-1024-single"          -> TestInputs.runsS(1024),
    "chunks-20000-double"       -> TestInputs.smooth1dD(20000),
    "chunks-40000-single"       -> TestInputs.randomS(40000),
    "border-17x33x20-single"    -> TestInputs.smooth3dS(17, 33, 20),
    "smooth-3d-double"          -> TestInputs.smooth3dD(12, 17, 19),
    "flat-3d-single"            -> TestInputs.smooth3dS(9, 1, 40),
    "walk-40000-double"         -> TestInputs.randomWalkD(40000),
    "walk-40000-single"         -> TestInputs.randomWalkS(40000),
    "decimal-1-single"          -> TestInputs.decimalS(5000, 1, 0, 31),
    "decimal-2-negative-double" -> TestInputs.decimalD(5000, 2, -1500, 37),
    "integer-double"            -> TestInputs.decimalD(5000, 0, 0, 41),
    "decimal-10-double"         -> TestInputs.decimalD(5000, 10, 0, 43),
    "raw-late-double"           -> {
      val b = TestInputs.decimalD(5000, 2, 0, 47)
      b.bits(b.n - 1) = java.lang.Double.doubleToRawLongBits(math.Pi)
      b
    })).toMap

  /** Codecs pinned over the same inputs: one CRC32 column per stream, written
    * by every (label, codec) listed for it, and one row of columns per input.
    */
  final case class Pins(columns: Seq[Seq[(String, Codec)]], rows: Seq[(String, Seq[String])])

  /** The bit-transposing codecs; ndzip-C and ndzip-G write the same stream. */
  val Transposing: Pins = Pins(Seq(Seq("MPC" -> new Mpc), Seq("ndzip-C" -> new NdzipCpu(1), "ndzip-G" -> new NdzipGpu)), Seq(
    "smooth-1d-double"       -> Seq("9abf74a5", "d262e64c"),
    "smooth-2d-double"       -> Seq("2fab452e", "941ccae0"),
    "smooth-3d-single"       -> Seq("f15dab54", "2dc7293d"),
    "random-double"          -> Seq("b7fd773f", "6708dc05"),
    "random-single"          -> Seq("96ee2f9f", "1f81351c"),
    "specials-double"        -> Seq("08a7aa64", "1d1ae8a7"),
    "specials-single"        -> Seq("b40b0c1a", "9573fe7a"),
    "quantized-2dec-double"  -> Seq("2fcc9a0a", "4ba48560"),
    "constant-double"        -> Seq("259234b3", "0ef788cf"),
    "runs-single"            -> Seq("df7713a8", "710197d8"),
    "tiny-double"            -> Seq("f155f7e9", "2c3d750f"),
    "single-value"           -> Seq("262ffead", "80073cbf"),
    "block-multiple-4096"    -> Seq("5cef2206", "9847d7a3"),
    "tail-1-double"          -> Seq("6522df69", "7bd5c66f"),
    "tail-7-double"          -> Seq("84eac535", "4cfc4cbf"),
    "tail-1025-double"       -> Seq("720da501", "fc1a5b4e"),
    "tail-1-single"          -> Seq("4e8a6b9a", "1215076b"),
    "tail-7-single"          -> Seq("0d28aec5", "e78872f3"),
    "tail-1025-single"       -> Seq("000b01d8", "022c8586"),
    "border-17x33x20-single" -> Seq("76039de5", "6eaba985")))

  /** The codecs that write through `core.BitWriter`, and BUFF; recorded
    * before `BitWriter` moved to 64-bit words, the BUFF-branch rows before
    * BUFF's quantizer and decoder loops were rewritten.
    */
  val BitStream: Pins = Pins(
    Seq(Seq("Gorilla" -> new Gorilla), Seq("GFC" -> new Gfc), Seq("nv:btcomp" -> new NvBitcomp), Seq("BUFF" -> new Buff)), Seq(
    "smooth-1d-double"          -> Seq("76c73d69", "015a7444", "f28f49cf", "6952223e"),
    "smooth-2d-double"          -> Seq("74a6e4c3", "a4146ebf", "fc72b02a", "c144c670"),
    "smooth-3d-single"          -> Seq("a284de1a", "1c0de92e", "5f65a2f7", "28b3d118"),
    "random-double"             -> Seq("02a5b229", "11c40d41", "28f8f079", "ab52b6d1"),
    "random-single"             -> Seq("244203b4", "b28acc9f", "e83511ef", "054d2dc0"),
    "specials-double"           -> Seq("bd9bc6fd", "6eed85b6", "160a87fd", "6744bb6a"),
    "specials-single"           -> Seq("2c126d2d", "956e8003", "0c569472", "78da18cc"),
    "quantized-2dec-double"     -> Seq("23ba8e6b", "dc12bd87", "a39fdb34", "dc499950"),
    "constant-double"           -> Seq("6c6549cf", "97d039e1", "821e5e8b", "ac4ef2c8"),
    "runs-single"               -> Seq("3e1d9ff7", "359b030e", "2d03ba73", "70389fb6"),
    "tiny-double"               -> Seq("bda919f6", "d47cb2ac", "4fef63da", "45820c69"),
    "single-value"              -> Seq("5a8c475a", "1c7aa2ef", "d9a78c9d", "2afffc04"),
    "block-multiple-4096"       -> Seq("fa28444e", "d7604534", "d963478f", "8494345f"),
    "page-512-double"           -> Seq("74c4e61e", "da8f7bb7", "75bb1ec4", "120af6d4"),
    "page-1024-single"          -> Seq("8376d95c", "3876b15b", "4f65d00a", "989c3a85"),
    "tail-1-double"             -> Seq("6522df69", "6ee66b09", "e60914ae", "3d20f439"),
    "tail-7-double"             -> Seq("d0ce39b3", "d74a7980", "1a477210", "953f1bab"),
    "tail-1-single"             -> Seq("c7829419", "888ef3bc", "20e4bc18", "d2134378"),
    "tail-7-single"             -> Seq("084762c3", "8ec5fbc4", "6e9aaf6c", "4fd13d9d"),
    "walk-40000-double"         -> Seq("89685b32", "07077026", "481e1c47", "e26e0e82"),
    "walk-40000-single"         -> Seq("5fbfa7ab", "18c4c1b1", "a0dc0cdd", "2ea21458"),
    "decimal-1-single"          -> Seq("97081594", "1a17c10a", "66174d2a", "55b2d825"),
    "decimal-2-negative-double" -> Seq("7f64f536", "6ca11ad6", "8787dd69", "b12a9a96"),
    "integer-double"            -> Seq("462b2385", "4381989a", "d7c75f82", "617a1657"),
    "decimal-10-double"         -> Seq("08d88bb5", "55c4d0af", "d1f5cb7e", "9d428e9d"),
    "raw-late-double"           -> Seq("99900f8b", "71a32029", "ca567a2c", "afc4cd44")))

  /** The chunk-framed LZ codecs, which write the same bytes at any thread
    * count, and fpzip; recorded before the chunk frame moved into
    * `core.Frame`, the two 3-D rows before fpzip's predictor read the extent
    * once per block.
    */
  val Framed: Pins = Pins(Seq(
    Seq("shf+LZ4(1)" -> new BitshuffleLz4(1), "shf+LZ4(4)" -> new BitshuffleLz4(4)),
    Seq("shf+zstd(1)" -> new BitshuffleZstd(1), "shf+zstd(4)" -> new BitshuffleZstd(4)),
    Seq("nv:LZ4" -> new NvLz4), Seq("fpzip" -> new Fpzip)), Seq(
    "smooth-1d-double"      -> Seq("d9dc9d24", "38241635", "76d6c992", "81df200a"),
    "smooth-2d-double"      -> Seq("26ffb951", "86bd8640", "ff369775", "e0d561e5"),
    "smooth-3d-single"      -> Seq("930f8acd", "1d2a4b68", "b001f778", "df44fc2d"),
    "random-double"         -> Seq("5637d4bf", "b52fe686", "c570b2b6", "7d8495bd"),
    "random-single"         -> Seq("1aeddef2", "b19487b2", "7a25f0b6", "c84e6e52"),
    "specials-double"       -> Seq("cc903299", "5de82d87", "baf0ecc9", "ca4c3048"),
    "specials-single"       -> Seq("2efe35b6", "3f86369e", "01c452db", "20cdd206"),
    "quantized-2dec-double" -> Seq("a5630dd7", "867e4adc", "f5763239", "f301cecd"),
    "constant-double"       -> Seq("1103efcd", "8f38f76b", "d9fb755f", "98a16e45"),
    "runs-single"           -> Seq("474d4fe9", "a98fd504", "9f612789", "baa6ae8c"),
    "tiny-double"           -> Seq("10e83c5f", "a0c3cde1", "10e83c5f", "1d613063"),
    "single-value"          -> Seq("545bca89", "dcb8d79d", "545bca89", "94f1cb89"),
    "block-multiple-4096"   -> Seq("e19d4e1c", "b2510d4b", "1c85620e", "982678db"),
    "page-512-double"       -> Seq("b6f90911", "4467e827", "8565487d", "62fabd59"),
    "page-1024-single"      -> Seq("23f46556", "8f446003", "4f4a87f3", "532b7c4b"),
    "tail-1-double"         -> Seq("af893059", "276a2d4d", "af893059", "19ec6d8b"),
    "tail-7-double"         -> Seq("6b741772", "2cd8b0ff", "6b741772", "656ea309"),
    "tail-1-single"         -> Seq("b7b15a03", "21c04920", "b7b15a03", "4bf7e7b6"),
    "tail-7-single"         -> Seq("c8e81163", "14eea025", "c8e81163", "0d44a338"),
    "chunks-20000-double"   -> Seq("ab6e639e", "d5590ff3", "4ca79662", "e2c6a1af"),
    "chunks-40000-single"   -> Seq("adbeaaac", "e682904c", "75dbbf78", "6b841f3c"),
    "smooth-3d-double"      -> Seq("33d74fad", "d1c4cfc6", "0f20c0cb", "106addbe"),
    "flat-3d-single"        -> Seq("1e56f20d", "6779923f", "03f381ee", "7bd53af5")))

  /** The codecs that keep hash or index tables across calls; pages and tiny
    * blocks take pFPC's walk-back reset path and meet the stale slots of
    * LZa6's and Chimp's position tables. Recorded before the tables were kept.
    */
  val Tabled: Pins = Pins(Seq(
    Seq("pFPC(1)" -> new Pfpc(1)), Seq("pFPC(4)" -> new Pfpc(4)), Seq("pFPC(8)" -> new Pfpc(8)),
    Seq("SPDP" -> new Spdp), Seq("Chimp" -> new Chimp)), Seq(
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
    "tail-7-single"         -> Seq("2223195a", "f8057651", "f8057651", "5f06be45", "a2cdd0ce")))

  val Table: Seq[Pins] = Seq(Transposing, BitStream, Framed, Tabled)

  /** The pinned CRC32 of `label`'s stream of `input`. */
  def pinned(label: String, input: String): String = (for {
    pins          <- Table
    (name, crcs)  <- pins.rows if name == input
    (column, crc) <- pins.columns.zip(crcs) if column.exists(_._1 == label)
  } yield crc).head
}

/** Every (label, input) stream of `pins` matches its pinned CRC32. */
abstract class PinnedStreamSpec(pins: GoldenPins.Pins) extends SparkSpec {
  for ((inputName, crcs) <- pins.rows; (column, crc) <- pins.columns.zip(crcs); (label, codec) <- column)
    test(s"$label stream of $inputName matches its pinned CRC32") {
      assert(GoldenPins.crc32(codec.compress(GoldenPins.Inputs(inputName)).bytes) == crc)
    }
}

class GoldenStreamSpec extends PinnedStreamSpec(GoldenPins.Transposing)

class FrameCodecGoldenSpec extends PinnedStreamSpec(GoldenPins.Framed)

class BitStreamGoldenSpec extends PinnedStreamSpec(GoldenPins.BitStream) {
  // Each BUFF-branch input -> the header its stream must carry: raw mode, or
  // packed mode with the decimal precision p it detected.
  for ((inputName, path) <- Seq("decimal-1-single" -> "packed p=1", "decimal-2-negative-double" -> "packed p=2",
                                "integer-double" -> "packed p=0", "decimal-10-double" -> "packed p=10",
                                "raw-late-double" -> "raw"))
    test(s"BUFF stream of $inputName takes the $path path and decodes bit-exactly") {
      val block  = GoldenPins.Inputs(inputName)
      val codec  = new Buff
      val bytes  = codec.compress(block).bytes
      val header = if (bytes(0) == 0) "raw" else s"packed p=${bytes(1)}"
      assert(header == path)
      assert(codec.decompress(bytes, block.precision, block.extent).block.bits.sameElements(block.bits))
    }
}

class TableCodecGoldenSpec extends PinnedStreamSpec(GoldenPins.Tabled) {
  /** Large blocks (pFPC's tables refilled in full) interleaved with small
    * ones (reset slot by slot), each compressed then decompressed on the
    * calling thread. The integer-valued pair targets Chimp: a stale index
    * only changes its stream for a value whose low 14 bits are zero, met
    * before any other such value in the block.
    */
  private val sequence: Seq[FpBlock] = Seq(
    TestInputs.randomD(70000), TestInputs.smooth1dD(512), TestInputs.runsS(1024),
    TestInputs.smooth1dD(600), TestInputs.smooth1dD(70000), TestInputs.randomS(7),
    FpBlock.fromDoubles(Array.tabulate(1000)(i => (i % 64).toDouble)),
    FpBlock.fromDoubles(Array(0.1, 0.3, 2.0, 0.7, 5.0, 0.9, 1.5)),
    TestInputs.quantizedD(32768, 2), TestInputs.smooth1dD(512))

  /** The CRC32 of `sequence`'s concatenated streams, per codec of `Tabled`. */
  private val pinnedSequence = Seq("2e852027", "dd99dc58", "a3f9ea10", "5f22509e", "2b456a7c")

  for (((label, codec), pin) <- GoldenPins.Tabled.columns.flatten.zip(pinnedSequence))
    test(s"$label leaves no residue across a large/small call sequence on one thread") {
      val crc = new CRC32
      for (block <- sequence) {
        val bytes = codec.compress(block).bytes
        crc.update(bytes)
        val back = codec.decompress(bytes, block.precision, block.extent).block
        assert(back.bits.sameElements(block.bits), s"${codec.name} failed to roundtrip ${block.n} values")
      }
      assert(f"${crc.getValue}%08x" == pin)
    }
}

/** Every registered codec has its stream pinned, so a codec cannot be added,
  * or its stream changed, without a recorded CRC32.
  */
class GoldenCoverageSpec extends SparkSpec {
  private val pinned: Set[String] = GoldenPins.Table.flatMap(_.columns.flatten.map(_._2.name)).toSet

  for (codec <- CodecRegistry.all)
    test(s"${codec.name} has a pinned stream in a golden spec") {
      assert(pinned.contains(codec.name),
             s"registered codec ${codec.name} has no pinned stream in any golden spec")
    }
}
