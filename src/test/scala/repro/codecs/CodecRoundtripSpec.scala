package repro.codecs

import org.scalacheck.{Gen, Prop}

import repro.{PropSupport, SparkSpec}
import repro.core.CodecRegistry

/** Bit-exact roundtrip of every registered codec: 14 codecs x 13
  * structurally distinct blocks, then one property over [[CodecGen]]'s
  * blocks with threaded codecs at a drawn thread count. Losslessness is the
  * one property FCBench takes as a precondition for every method.
  */
class CodecRoundtripSpec extends SparkSpec with PropSupport {
  for (codec <- CodecRegistry.all; (inputName, block) <- TestInputs.corpus) {
    test(s"${codec.name} roundtrips $inputName bit-exactly") {
      CodecGen.roundTrip(codec, block).foreach(fail(_))
    }
  }

  test("property: all 14 codecs roundtrip drawn blocks bit-exactly, threaded ones at 1-4 threads") {
    for (codec <- CodecRegistry.all; d <- CodecGen.tileExamples ++ CodecGen.chunkEdgeExamples)
      CodecGen.roundTrip(codec, d.block).foreach(f => fail(s"$d: $f"))
    checkProp(Prop.forAllNoShrink(Gen.oneOf(CodecRegistry.all), CodecGen.drawn, Gen.choose(1, 4)) { (codec, d, t) =>
      val failure = CodecGen.roundTrip(CodecGen.atThreads(codec, t), d.block)
      Prop.propBoolean(failure.isEmpty) :| failure.getOrElse("")
    }, minTests = 700)
  }

  for (codec <- CodecRegistry.all) {
    test(s"${codec.name} reports a plausible work profile") {
      val block = TestInputs.smooth1dD(2000)
      val comp  = codec.compress(block)
      assert(comp.work.bytesRead > 0)
      assert(comp.work.bytesWritten > 0)
      assert(comp.work.ops > 0)
    }

    test(s"${codec.name} compresses smooth data better than random data") {
      val smooth = codec.compress(TestInputs.smooth1dD(8192)).bytes.length
      val random = codec.compress(TestInputs.randomD(8192)).bytes.length
      // Smooth, neighbor-correlated data must never compress *worse* than
      // full-entropy mantissas (allow 2% slack for framing overhead).
      assert(smooth <= random * 1.02,
             s"smooth=$smooth random=$random")
    }
  }
}
