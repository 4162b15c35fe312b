package repro.codecs

import repro.SparkSpec
import repro.core.{Codec, FpBlock}
import repro.codecs.cpu.{BitshuffleLz4, BitshuffleZstd, Fpzip}
import repro.codecs.gpu.NvLz4

/** Pins the exact compressed bytes of the chunk-framed LZ codecs (bitshuffle
  * with LZ4 and zstd at 1 and 4 threads, nvCOMP::LZ4) and of fpzip by the
  * CRC32 of each stream, over the roundtrip corpus, a 4 KiB page of each
  * precision, tiny blocks, and blocks of several 64 KiB chunks with a short
  * last chunk. With the pFPC pins of [[TableCodecGoldenSpec]] and the ndzip
  * pins of [[GoldenStreamSpec]], they fix every stream that carries a chunk
  * frame; bitshuffle writes the same bytes at any thread count.
  */
class FrameCodecGoldenSpec extends SparkSpec {
  import FrameCodecGoldenSpec._
  import TableCodecGoldenSpec.crc32

  for ((inputName, block) <- Inputs; ((label, codec), column) <- Codecs)
    test(s"$label stream of $inputName matches its pinned CRC32") {
      assert(crc32(codec.compress(block).bytes) == Pinned(inputName)(column))
    }
}

object FrameCodecGoldenSpec {
  /** (label, codec) -> column of `Pinned`. */
  val Codecs: Seq[((String, Codec), Int)] = Seq(
    ("shf+LZ4(1)", new BitshuffleLz4(1)) -> 0, ("shf+LZ4(4)", new BitshuffleLz4(4)) -> 0,
    ("shf+zstd(1)", new BitshuffleZstd(1)) -> 1, ("shf+zstd(4)", new BitshuffleZstd(4)) -> 1,
    ("nv:LZ4", new NvLz4) -> 2, ("fpzip", new Fpzip) -> 3)

  val PinnedCodecs: Set[String] = Codecs.map(_._1._2.name).toSet

  val Inputs: Seq[(String, FpBlock)] = TestInputs.corpus ++ Seq(
    "page-512-double"     -> TestInputs.smooth1dD(512),
    "page-1024-single"    -> TestInputs.runsS(1024),
    "tail-1-double"       -> TestInputs.smooth1dD(1),
    "tail-7-double"       -> TestInputs.smooth1dD(7),
    "tail-1-single"       -> TestInputs.randomS(1),
    "tail-7-single"       -> TestInputs.randomS(7),
    "chunks-20000-double" -> TestInputs.smooth1dD(20000),
    "chunks-40000-single" -> TestInputs.randomS(40000),
  )

  /** input -> CRC32 of the (shf+LZ4, shf+zstd, nv:LZ4, fpzip) streams,
    * recorded before the chunk frame moved into `core.Frame`.
    */
  val Pinned: Map[String, Seq[String]] = Map(
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
    "page-512-double"     -> Seq("b6f90911", "4467e827", "8565487d", "62fabd59"),
    "page-1024-single"    -> Seq("23f46556", "8f446003", "4f4a87f3", "532b7c4b"),
    "tail-1-double"       -> Seq("af893059", "276a2d4d", "af893059", "19ec6d8b"),
    "tail-7-double"       -> Seq("6b741772", "2cd8b0ff", "6b741772", "656ea309"),
    "tail-1-single"       -> Seq("b7b15a03", "21c04920", "b7b15a03", "4bf7e7b6"),
    "tail-7-single"       -> Seq("c8e81163", "14eea025", "c8e81163", "0d44a338"),
    "chunks-20000-double" -> Seq("ab6e639e", "d5590ff3", "4ca79662", "e2c6a1af"),
    "chunks-40000-single" -> Seq("adbeaaac", "e682904c", "75dbbf78", "6b841f3c"),
  )
}
