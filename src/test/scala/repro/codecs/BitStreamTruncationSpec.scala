package repro.codecs

import java.nio.{ByteBuffer, ByteOrder}

import repro.SparkSpec
import repro.core.{Codec, FpBlock}
import repro.codecs.cpu.{Chimp, Fpzip, Gorilla}
import repro.codecs.gpu.{Gfc, NvBitcomp}

/** Every codec that reads its stream through `core.BitReader` (Gorilla,
  * Chimp, GFC, nv:btcomp, and fpzip's verbatim bits) raises an exception on a
  * stream cut short and never returns a block: the reader must not hand out
  * zero bits from past the end of the stream. fpzip also checks the length
  * of its range-coded part, which its range decoder must not read past.
  */
class BitStreamTruncationSpec extends SparkSpec {

  private val codecs: Seq[Codec] = Seq(new Gorilla, new Chimp, new Gfc, new NvBitcomp, new Fpzip)

  private val blocks: Seq[(String, FpBlock)] = Seq(
    "double" -> TestInputs.randomWalkD(40000), "single" -> TestInputs.randomWalkS(40000))

  private def decode(codec: Codec, block: FpBlock, bytes: Array[Byte]): FpBlock =
    codec.decompress(bytes, block.precision, block.extent).block

  /** fpzip's stream starts with the length of its range-coded part. */
  for ((precision, block) <- blocks)
    test(s"fpzip rejects a $precision stream whose symbol-stream length is too large, too small or negative") {
      val codec  = new Fpzip
      val bytes  = codec.compress(block).bytes
      val symLen = ByteBuffer.wrap(bytes).order(ByteOrder.LITTLE_ENDIAN).getInt(0)
      for (len <- Seq(bytes.length - 3, Int.MaxValue, symLen - 1, 0, -1, Int.MinValue))
        withClue(s"length field $len of $symLen: ") {
          val bad = bytes.clone()
          ByteBuffer.wrap(bad).order(ByteOrder.LITTLE_ENDIAN).putInt(0, len)
          intercept[IllegalArgumentException](decode(codec, block, bad))
        }
      for (cut <- 0 to 3) intercept[IllegalArgumentException](decode(codec, block, bytes.take(cut)))
    }

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
