package repro.codecs

import java.util.zip.CRC32

import repro.SparkSpec
import repro.core.{Codec, FpBlock}
import repro.codecs.cpu.NdzipCpu
import repro.codecs.gpu.{Mpc, NdzipGpu}

/** Pins the exact compressed bytes of the bit-transposing codecs (MPC,
  * ndzip-C, ndzip-G) by the CRC32 of each stream, over the roundtrip corpus
  * plus tail shapes: MPC chunks that are not a multiple of the word size, and
  * an ndzip grid with border slabs on every axis. Any change to the stream
  * format moves a CRC, and with it the compression ratios the tables report.
  */
class GoldenStreamSpec extends SparkSpec {
  import GoldenStreamSpec._

  private val inputs: Seq[(String, FpBlock)] = TestInputs.corpus ++ Seq(
    "tail-1-double"          -> TestInputs.smooth1dD(1),
    "tail-7-double"          -> TestInputs.smooth1dD(7),
    "tail-1025-double"       -> TestInputs.smooth1dD(1025),
    "tail-1-single"          -> TestInputs.randomS(1),
    "tail-7-single"          -> TestInputs.randomS(7),
    "tail-1025-single"       -> TestInputs.smooth3dS(1, 1, 1025),
    "border-17x33x20-single" -> TestInputs.smooth3dS(17, 33, 20),
  )

  private def crc32(bytes: Array[Byte]): String = {
    val crc = new CRC32
    crc.update(bytes)
    f"${crc.getValue}%08x"
  }

  for ((inputName, block) <- inputs; (codec, pinnedOf) <- Codecs)
    test(s"${codec.name} stream of $inputName matches its pinned CRC32") {
      assert(crc32(codec.compress(block).bytes) == pinnedOf(Pinned(inputName)))
    }
}

object GoldenStreamSpec {
  /** Each codec with the half of a `Pinned` entry that holds its CRC32. */
  val Codecs: Seq[(Codec, ((String, String)) => String)] =
    Seq(new Mpc -> (_._1), new NdzipCpu(1) -> (_._2), new NdzipGpu -> (_._2))

  val PinnedCodecs: Set[String] = Codecs.map(_._1.name).toSet

  /** input -> (MPC stream CRC32, ndzip stream CRC32); ndzip-C and ndzip-G
    * write the same stream.
    */
  val Pinned: Map[String, (String, String)] = Map(
    "smooth-1d-double"       -> ("9abf74a5", "d262e64c"),
    "smooth-2d-double"       -> ("2fab452e", "941ccae0"),
    "smooth-3d-single"       -> ("f15dab54", "2dc7293d"),
    "random-double"          -> ("b7fd773f", "6708dc05"),
    "random-single"          -> ("96ee2f9f", "1f81351c"),
    "specials-double"        -> ("08a7aa64", "1d1ae8a7"),
    "specials-single"        -> ("b40b0c1a", "9573fe7a"),
    "quantized-2dec-double"  -> ("2fcc9a0a", "4ba48560"),
    "constant-double"        -> ("259234b3", "0ef788cf"),
    "runs-single"            -> ("df7713a8", "710197d8"),
    "tiny-double"            -> ("f155f7e9", "2c3d750f"),
    "single-value"           -> ("262ffead", "80073cbf"),
    "block-multiple-4096"    -> ("5cef2206", "9847d7a3"),
    "tail-1-double"          -> ("6522df69", "7bd5c66f"),
    "tail-7-double"          -> ("84eac535", "4cfc4cbf"),
    "tail-1025-double"       -> ("720da501", "fc1a5b4e"),
    "tail-1-single"          -> ("4e8a6b9a", "1215076b"),
    "tail-7-single"          -> ("0d28aec5", "e78872f3"),
    "tail-1025-single"       -> ("000b01d8", "022c8586"),
    "border-17x33x20-single" -> ("76039de5", "6eaba985"),
  )
}
