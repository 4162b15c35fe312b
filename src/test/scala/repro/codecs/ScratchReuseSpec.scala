package repro.codecs

import scala.collection.mutable.ArrayBuffer

import repro.SparkSpec
import repro.core.{Codec, CodecRegistry, FpBlock, ThreadedCodec}

/** Codecs keep writers, output buffers and scratch arrays per thread across
  * calls (see `core.KeptArray`). On one thread, each codec runs over an
  * interleaved sequence of a 256 KiB block (over the 64 KiB cap), 4 KiB
  * single and double pages and a one-value block, with a decode of a cut
  * stream that throws in between. Every stream must equal the one a fresh
  * thread writes for the same input, and every earlier stream and decoded
  * block must still hold its bytes after the later calls: no kept array
  * leaves a call.
  */
class ScratchReuseSpec extends SparkSpec {

  private val large  = TestInputs.randomWalkD(32768)
  private val pageD  = TestInputs.smooth1dD(512)
  private val pageS  = TestInputs.randomWalkS(1024)
  private val single = FpBlock.fromDoubles(Array(42.0))

  private val sequence: Seq[FpBlock] = Seq(pageD, large, pageS, single, pageD, pageS, large, single, pageS)

  /** `f` on a new thread, whose kept arrays start empty. */
  private def onFreshThread[A](f: => A): A = {
    var out: Either[Throwable, A] = null
    val t = new Thread(() => out = try Right(f) catch { case e: Throwable => Left(e) })
    t.start()
    t.join()
    out.fold(throw _, identity)
  }

  private def oneThread(codec: Codec): Codec = codec match {
    case t: ThreadedCodec => t.withThreads(1)
    case c                => c
  }

  for (registered <- CodecRegistry.all)
    test(s"${registered.name}: interleaved calls on one thread write the fresh-thread streams and keep every result") {
      val codec    = oneThread(registered)
      val expected = sequence.distinct.map(b => b -> onFreshThread(codec.compress(b).bytes)).toMap
      val streams  = ArrayBuffer.empty[(FpBlock, Array[Byte], Array[Byte])] // block, stream, its copy
      val decoded  = ArrayBuffer.empty[(FpBlock, Array[Long])]

      for ((block, k) <- sequence.zipWithIndex) {
        val bytes = codec.compress(block).bytes
        assert(java.util.Arrays.equals(bytes, expected(block)), s"call $k: stream differs from a fresh thread's")
        streams += ((block, bytes, bytes.clone()))
        decoded += block -> codec.decompress(bytes, block.precision, block.extent).block.bits
        if (k % 3 == 1) {
          val cut = bytes.take(bytes.length / 2)
          intercept[Exception](codec.decompress(cut, block.precision, block.extent))
        }
        for (((b, s, copy), i) <- streams.zipWithIndex) {
          assert(java.util.Arrays.equals(s, copy), s"stream $i changed after call $k")
          assert(java.util.Arrays.equals(codec.decompress(s, b.precision, b.extent).block.bits, b.bits),
                 s"stream $i no longer decodes after call $k")
        }
        for (((b, bits), i) <- decoded.zipWithIndex)
          assert(java.util.Arrays.equals(bits, b.bits), s"decoded block $i changed after call $k")
      }
    }
}
