package repro.codecs

import scala.collection.mutable.ArrayBuffer

import org.scalacheck.{Gen, Prop}

import repro.{PropSupport, SparkSpec}
import repro.core.{Codec, CodecRegistry, FpBlock, ThreadedCodec}

/** Codecs keep writers, output buffers, scratch arrays and tables per
  * thread across calls, in one `core.Scratch` per thread whose arrays are
  * kept up to `Scratch.MaxBytes`. On one thread, each codec runs over an
  * interleaved sequence of a 256 KiB block (over the 64 KiB cap), 4 KiB
  * single and double pages and a one-value block, with a decode of a cut
  * stream that throws in between; then all 14 codecs run in drawn
  * sequences that interleave them, as codecs share the scratch's roles.
  * Every stream must equal the one a fresh thread writes for the same
  * input, and every earlier stream and decoded block must still hold its
  * bytes after the later calls: nothing kept leaves a call.
  */
class ScratchReuseSpec extends SparkSpec with PropSupport {

  private val large  = TestInputs.randomWalkD(32768)
  private val pageD  = TestInputs.smooth1dD(512)
  private val pageS  = TestInputs.randomWalkS(1024)
  private val single = FpBlock.fromDoubles(Array(42.0))

  private val sequence: Seq[FpBlock] = Seq(pageD, large, pageS, single, pageD, pageS, large, single, pageS)

  /** `f` on a new thread, whose scratch starts empty. */
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

  /** The codecs at one thread, so that every call runs on the test's thread. */
  private val codecs: IndexedSeq[Codec] = CodecRegistry.all.map(oneThread).toIndexedSeq

  /** One value, a single and a double 4 KiB page, a double and a single
    * 64 KiB block and a 256 KiB block: under, at and over the cap.
    */
  private val blocks: IndexedSeq[FpBlock] = IndexedSeq(
    single, pageS, pageD, TestInputs.decimalD(8192, 2, 0, 31), TestInputs.randomWalkS(16384, 37), large)

  /** A codec's stream of a block on a fresh thread, written once per pair. */
  private val fresh = scala.collection.mutable.Map.empty[(Int, Int), Array[Byte]]
  private def freshStream(c: Int, b: Int): Array[Byte] =
    fresh.getOrElseUpdate((c, b), onFreshThread(codecs(c).compress(blocks(b)).bytes))

  /** A call: codec, block, and whether a decode of the stream's first half
    * follows it, which every codec rejects for every one of these blocks.
    */
  private val step: Gen[(Int, Int, Boolean)] = for {
    c   <- Gen.choose(0, codecs.length - 1)
    b   <- Gen.choose(0, blocks.length - 1)
    cut <- Gen.frequency(3 -> false, 1 -> true)
  } yield (c, b, cut)

  test("property: sequences that interleave all 14 codecs on one thread write the fresh-thread streams and keep every result") {
    checkProp(Prop.forAllNoShrink(Gen.choose(4, 12).flatMap(Gen.listOfN(_, step))) { steps =>
      val results = ArrayBuffer.empty[(Int, Int, Array[Byte], Array[Byte], Array[Long])] // codec, block, stream, copy, decoded
      val failure = steps.iterator.zipWithIndex.map { case ((c, b, cut), k) =>
        val (codec, block) = (codecs(c), blocks(b))
        val bytes = codec.compress(block).bytes
        val bits  = codec.decompress(bytes, block.precision, block.extent).block.bits
        results += ((c, b, bytes, bytes.clone(), bits))
        val threw = !cut || (try { codec.decompress(bytes.take(bytes.length / 2), block.precision, block.extent); false }
                             catch { case _: Exception => true })
        val changed = results.indexWhere { case (_, b0, s, copy, d) =>
          !java.util.Arrays.equals(s, copy) || !java.util.Arrays.equals(d, blocks(b0).bits)
        }
        if (!java.util.Arrays.equals(bytes, freshStream(c, b))) Some(s"call $k (${codec.name}): stream differs from a fresh thread's")
        else if (!java.util.Arrays.equals(bits, block.bits)) Some(s"call $k (${codec.name}): decodes to other values")
        else if (!threw) Some(s"call $k (${codec.name}): a cut stream decoded")
        else if (changed >= 0) Some(s"result $changed changed after call $k (${codec.name})")
        else None
      }.collectFirst { case Some(f) => f }.orElse {
        results.indexWhere { case (c, b0, s, _, _) =>
          val block = blocks(b0)
          !java.util.Arrays.equals(codecs(c).decompress(s, block.precision, block.extent).block.bits, block.bits)
        } match {
          case -1 => None
          case i  => Some(s"stream $i no longer decodes after the sequence")
        }
      }
      Prop.propBoolean(failure.isEmpty) :|
        s"${failure.getOrElse("")}; steps ${steps.map { case (c, b, cut) => s"${codecs(c).name}/$b${if (cut) "/cut" else ""}" }.mkString(" ")}"
    }, minTests = 40)
  }
}
