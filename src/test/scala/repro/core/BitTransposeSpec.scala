package repro.core

import repro.{PropSupport, SparkSpec}
import org.scalacheck.{Gen, Prop}

class BitTransposeSpec extends SparkSpec with PropSupport {
  import BitTransposeSpec._

  /** (w, offset, array): a w x w matrix of random w-bit words at a random
    * offset inside a larger array of random words.
    */
  private val matrixGen: Gen[(Int, Int, Array[Long])] = for {
    w     <- Gen.oneOf(32, 64)
    off   <- Gen.choose(0, 40)
    extra <- Gen.choose(0, 40)
    words <- Gen.listOfN(off + w + extra, Gen.choose(Long.MinValue, Long.MaxValue))
  } yield {
    val a = words.toArray
    if (w == 32) for (i <- off until off + w) a(i) &= 0xffffffffL
    (w, off, a)
  }

  test("property: square equals the bit-at-a-time transpose") {
    checkProp(Prop.forAllNoShrink(matrixGen) { case (w, off, a) =>
      val planes = bitLoopTranspose(a.slice(off, off + w), w)
      BitTranspose.square(a, off, w)
      // the bit loop stores bit plane b at index w-1-b (MSB plane first)
      (0 until w).forall(b => a(off + b) == planes(w - 1 - b))
    }, minTests = 200)
  }

  test("property: square is self-inverse and touches only its w words") {
    checkProp(Prop.forAllNoShrink(matrixGen) { case (w, off, a) =>
      val orig = a.clone()
      BitTranspose.square(a, off, w)
      val outsideKept = (a.indices.filter(i => i < off || i >= off + w))
        .forall(i => a(i) == orig(i))
      BitTranspose.square(a, off, w)
      outsideKept && a.sameElements(orig)
    }, minTests = 200)
  }

  test("property: square(…, 32) transposes the low halves and leaves the high halves as they are") {
    val gen = for {
      off   <- Gen.choose(0, 40)
      extra <- Gen.choose(0, 40)
      words <- Gen.listOfN(off + 32 + extra, Gen.choose(Long.MinValue, Long.MaxValue))
    } yield (off, words.toArray)
    checkProp(Prop.forAllNoShrink(gen) { case (off, a) =>
      val planes = bitLoopTranspose(a.slice(off, off + 32).map(_ & 0xffffffffL), 32)
      val orig   = a.clone()
      BitTranspose.square(a, off, 32)
      a.indices.forall { i =>
        if (i < off || i >= off + 32) a(i) == orig(i)
        else (a(i) & 0xffffffffL) == planes(31 - (i - off)) && (a(i) >>> 32) == (orig(i) >>> 32)
      }
    }, minTests = 200)
  }

  test("property: squarePair32 transposes the low and the high halves as two 32-wide squares") {
    val gen = for {
      off   <- Gen.choose(0, 40)
      extra <- Gen.choose(0, 40)
      words <- Gen.listOfN(off + 32 + extra, Gen.choose(Long.MinValue, Long.MaxValue))
    } yield (off, words.toArray)
    checkProp(Prop.forAllNoShrink(gen) { case (off, a) =>
      val lo = a.map(_ & 0xffffffffL)
      val hi = a.map(_ >>> 32)
      BitTranspose.square(lo, off, 32)
      BitTranspose.square(hi, off, 32)
      val orig = a.clone()
      BitTranspose.squarePair32(a, off)
      a.indices.forall(i => a(i) == (if (i < off || i >= off + 32) orig(i) else lo(i) | (hi(i) << 32)))
    }, minTests = 200)
  }

  test("square rejects widths other than 32 and 64") {
    intercept[IllegalArgumentException](BitTranspose.square(new Array[Long](16), 0, 16))
  }
}

object BitTransposeSpec {
  /** The reference transpose: one bit per step. Packs bit `bit` of every
    * input word into plane w-1-bit, bit i of the plane from word i.
    */
  def bitLoopTranspose(in: Array[Long], w: Int): Array[Long] = {
    val len           = in.length
    val wordsPerPlane = (len + w - 1) / w
    val out           = new Array[Long](w * wordsPerPlane)
    var bit = 0
    while (bit < w) {
      val plane = w - 1 - bit
      var i = 0
      while (i < len) {
        if (((in(i) >>> bit) & 1L) != 0)
          out(plane * wordsPerPlane + i / w) |= 1L << (i % w)
        i += 1
      }
      bit += 1
    }
    out
  }
}
