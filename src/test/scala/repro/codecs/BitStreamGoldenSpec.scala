package repro.codecs

import repro.SparkSpec
import repro.core.{Codec, FpBlock}
import repro.codecs.cpu.{Buff, Gorilla}
import repro.codecs.gpu.{Gfc, NvBitcomp}

/** Pins the exact compressed bytes of Gorilla, GFC, nv:btcomp and BUFF by the
  * CRC32 of each stream, over the roundtrip corpus, tiny blocks, a 4 KiB page
  * of each precision, and a 40 000-value random walk of each precision:
  * several nv:btcomp chunks and full-width GFC residuals. The first three
  * write their streams through `core.BitWriter`. With [[GoldenStreamSpec]],
  * [[TableCodecGoldenSpec]] and [[FrameCodecGoldenSpec]] these pins fix the
  * stream of every registered codec, which [[GoldenCoverageSpec]] checks.
  */
class BitStreamGoldenSpec extends SparkSpec {
  import BitStreamGoldenSpec._
  import TableCodecGoldenSpec.crc32

  for ((inputName, block) <- Inputs; ((label, codec), i) <- Codecs.zipWithIndex)
    test(s"$label stream of $inputName matches its pinned CRC32") {
      assert(crc32(codec.compress(block).bytes) == Pinned(inputName)(i))
    }
}

object BitStreamGoldenSpec {
  val Codecs: Seq[(String, Codec)] = Seq(
    "Gorilla" -> new Gorilla, "GFC" -> new Gfc, "nv:btcomp" -> new NvBitcomp, "BUFF" -> new Buff)

  val PinnedCodecs: Set[String] = Codecs.map(_._2.name).toSet

  val Inputs: Seq[(String, FpBlock)] = TestInputs.corpus ++ Seq(
    "page-512-double"   -> TestInputs.smooth1dD(512),
    "page-1024-single"  -> TestInputs.runsS(1024),
    "tail-1-double"     -> TestInputs.smooth1dD(1),
    "tail-7-double"     -> TestInputs.smooth1dD(7),
    "tail-1-single"     -> TestInputs.randomS(1),
    "tail-7-single"     -> TestInputs.randomS(7),
    "walk-40000-double" -> TestInputs.randomWalkD(40000),
    "walk-40000-single" -> TestInputs.randomWalkS(40000),
  )

  /** input -> CRC32 of the (Gorilla, GFC, nv:btcomp, BUFF) streams, recorded
    * before `BitWriter` moved to 64-bit words.
    */
  val Pinned: Map[String, Seq[String]] = Map(
    "smooth-1d-double"      -> Seq("76c73d69", "015a7444", "f28f49cf", "6952223e"),
    "smooth-2d-double"      -> Seq("74a6e4c3", "a4146ebf", "fc72b02a", "c144c670"),
    "smooth-3d-single"      -> Seq("a284de1a", "1c0de92e", "5f65a2f7", "28b3d118"),
    "random-double"         -> Seq("02a5b229", "11c40d41", "28f8f079", "ab52b6d1"),
    "random-single"         -> Seq("244203b4", "b28acc9f", "e83511ef", "054d2dc0"),
    "specials-double"       -> Seq("bd9bc6fd", "6eed85b6", "160a87fd", "6744bb6a"),
    "specials-single"       -> Seq("2c126d2d", "956e8003", "0c569472", "78da18cc"),
    "quantized-2dec-double" -> Seq("23ba8e6b", "dc12bd87", "a39fdb34", "dc499950"),
    "constant-double"       -> Seq("6c6549cf", "97d039e1", "821e5e8b", "ac4ef2c8"),
    "runs-single"           -> Seq("3e1d9ff7", "359b030e", "2d03ba73", "70389fb6"),
    "tiny-double"           -> Seq("bda919f6", "d47cb2ac", "4fef63da", "45820c69"),
    "single-value"          -> Seq("5a8c475a", "1c7aa2ef", "d9a78c9d", "2afffc04"),
    "block-multiple-4096"   -> Seq("fa28444e", "d7604534", "d963478f", "8494345f"),
    "page-512-double"       -> Seq("74c4e61e", "da8f7bb7", "75bb1ec4", "120af6d4"),
    "page-1024-single"      -> Seq("8376d95c", "3876b15b", "4f65d00a", "989c3a85"),
    "tail-1-double"         -> Seq("6522df69", "6ee66b09", "e60914ae", "3d20f439"),
    "tail-7-double"         -> Seq("d0ce39b3", "d74a7980", "1a477210", "953f1bab"),
    "tail-1-single"         -> Seq("c7829419", "888ef3bc", "20e4bc18", "d2134378"),
    "tail-7-single"         -> Seq("084762c3", "8ec5fbc4", "6e9aaf6c", "4fd13d9d"),
    "walk-40000-double"     -> Seq("89685b32", "07077026", "481e1c47", "e26e0e82"),
    "walk-40000-single"     -> Seq("5fbfa7ab", "18c4c1b1", "a0dc0cdd", "2ea21458"),
  )
}
