package repro.codecs

import java.nio.{ByteBuffer, ByteOrder}

import repro.SparkSpec
import repro.core.{Codec, FpBlock}
import repro.codecs.cpu.{BitshuffleLz4, BitshuffleZstd, NdzipCpu, Pfpc}
import repro.codecs.gpu.{NdzipGpu, NvLz4}

/** Every codec that stores its chunks in a `core.Frame` rejects a damaged
  * frame instead of decoding it: a stream cut short, a chunk count the
  * decoder does not expect, and a chunk length that runs past the stream.
  * ndzip also rejects raw border bytes that do not fill the border exactly,
  * and bitshuffle a damaged part, with the same exception at any thread count.
  */
class FrameSpec extends SparkSpec {

  /** A 40 000-value random walk: several chunks for every codec here, and
    * an ndzip border after the last tile.
    */
  private val block: FpBlock = {
    val rng = new scala.util.Random(23)
    var x   = 0.0
    FpBlock.fromDoubles(Array.fill(40000) { x += rng.nextGaussian(); x })
  }

  private val codecs: Seq[(String, Codec)] = Seq(
    "pFPC(1)" -> new Pfpc(1), "pFPC(4)" -> new Pfpc(4),
    "shf+LZ4" -> new BitshuffleLz4(1), "shf+zstd" -> new BitshuffleZstd(1),
    "nv:LZ4" -> new NvLz4, "ndzip-C" -> new NdzipCpu(1), "ndzip-G" -> new NdzipGpu)

  private def withInt(bytes: Array[Byte], off: Int, v: Int): Array[Byte] = {
    val bad = bytes.clone()
    ByteBuffer.wrap(bad).order(ByteOrder.LITTLE_ENDIAN).putInt(off, v)
    bad
  }

  private def decode(codec: Codec, bytes: Array[Byte]): FpBlock =
    codec.decompress(bytes, block.precision, block.extent).block

  for ((label, codec) <- codecs) {
    lazy val bytes = codec.compress(block).bytes

    test(s"$label raises an exception on a stream cut at any of 20 points") {
      assert(decode(codec, bytes).bits.sameElements(block.bits))
      for (k <- 1 to 20) {
        val cut = bytes.length - k * bytes.length / 41
        withClue(s"cut at $cut of ${bytes.length} bytes: ") {
          intercept[Exception](decode(codec, bytes.take(cut)))
        }
      }
    }

    for (count <- Seq(Int.MaxValue, -1, 0))
      test(s"$label rejects a chunk count of $count") {
        intercept[IllegalArgumentException](decode(codec, withInt(bytes, 0, count)))
      }

    test(s"$label rejects a chunk length that runs past the end of the stream") {
      val count   = ByteBuffer.wrap(bytes).order(ByteOrder.LITTLE_ENDIAN).getInt(0)
      val payload = 4 + 4 * count
      for (len <- Seq(bytes.length - payload + 1, Int.MaxValue, -1))
        intercept[IllegalArgumentException](decode(codec, withInt(bytes, 4, len)))
    }

    if (label.startsWith("ndzip"))
      test(s"$label rejects a border cut short or followed by a trailing byte") {
        for (k <- 1 to 8) withClue(s"cut by $k bytes: ") {
          intercept[IllegalArgumentException](decode(codec, bytes.dropRight(k)))
        }
        intercept[IllegalArgumentException](decode(codec, bytes :+ 0.toByte))
      }
  }

  test("shf+LZ4 and shf+zstd raise a damaged part's own exception at 1 and 4 threads") {
    for (codec <- Seq(new BitshuffleLz4(1), new BitshuffleLz4(4), new BitshuffleZstd(1), new BitshuffleZstd(4)))
      withClue(s"${codec.name}(${codec.threads}): ") {
        val bad   = codec.compress(block).bytes.clone()
        val count = ByteBuffer.wrap(bad).order(ByteOrder.LITTLE_ENDIAN).getInt(0)
        java.util.Arrays.fill(bad, 4 + 4 * count, 4 + 4 * count + 40, 0xff.toByte)
        intercept[IllegalArgumentException](decode(codec, bad))
      }
  }
}
