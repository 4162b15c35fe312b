package repro.codecs

import repro.SparkSpec
import repro.core.{Codec, FpBlock}
import repro.codecs.cpu.{Chimp, Fpzip, Gorilla}
import repro.codecs.gpu.{Gfc, NvBitcomp}

/** Every codec that reads its stream through `core.BitReader` (Gorilla,
  * Chimp, GFC, nv:btcomp, and fpzip's verbatim bits) raises an exception on a
  * stream cut short and never returns a block: the reader must not hand out
  * zero bits from past the end of the stream.
  */
class BitStreamTruncationSpec extends SparkSpec {

  private val codecs: Seq[Codec] = Seq(new Gorilla, new Chimp, new Gfc, new NvBitcomp, new Fpzip)

  private val blocks: Seq[(String, FpBlock)] = Seq(
    "double" -> TestInputs.randomWalkD(40000), "single" -> TestInputs.randomWalkS(40000))

  private def decode(codec: Codec, block: FpBlock, bytes: Array[Byte]): FpBlock =
    codec.decompress(bytes, block.precision, block.extent).block

  for (codec <- codecs; (precision, block) <- blocks)
    test(s"${codec.name} raises an exception on a $precision stream cut at any of 20 points") {
      val bytes = codec.compress(block).bytes
      assert(decode(codec, block, bytes).bits.sameElements(block.bits))
      for (k <- 1 to 20) {
        val cut = bytes.length - k * bytes.length / 21
        withClue(s"cut at $cut of ${bytes.length} bytes: ") {
          intercept[Exception](decode(codec, block, bytes.take(cut)))
        }
      }
    }
}
