package repro.core

import repro.{PropSupport, SparkSpec}
import org.scalacheck.{Gen, Prop}

class CoreUtilSpec extends SparkSpec with PropSupport {

  test("ByteBuf single-byte writes") {
    val b = new ByteBuf(2)
    (0 until 1000).foreach(i => b.write(i & 0xff))
    val a = b.toArray
    assert(a.length == 1000)
    assert((0 until 1000).forall(i => (a(i) & 0xff) == (i & 0xff)))
  }

  test("ByteBuf bulk writes and a 4-byte writeWordLE") {
    val b = new ByteBuf()
    b.writeWordLE(0x04030201, 4)
    b.write(Array[Byte](9, 8, 7), 1, 2)
    assert(b.toArray.toSeq == Seq[Byte](1, 2, 3, 4, 8, 7))
    assert(b.size == 6)
  }

  test("ByteBuf lets go of an array over the cap in toArray and fails loudly until restarted") {
    val b = new ByteBuf(16)
    val big = Array.tabulate[Byte](Scratch.MaxBytes + 1)(_.toByte)
    b.write(big, 0, big.length)
    assert(b.toArray.sameElements(big))
    intercept[NullPointerException](b.toArray)
    intercept[NullPointerException](b.write(1))
    b.restart(4).writeWordLE(0x04030201, 4)
    assert(b.toArray.toSeq == Seq[Byte](1, 2, 3, 4))
    assert(b.toArray.toSeq == Seq[Byte](1, 2, 3, 4)) // a kept array stays readable
  }

  test("ByteBuf and BitWriter copyTo write the toArray bytes at an offset and end the stream as toArray does") {
    val b = new ByteBuf(4)
    b.write(Array[Byte](1, 2, 3), 0, 3)
    val w = new BitWriter(4)
    w.writeBits(0x5a5L, 12) // one whole byte and 4 pending bits
    val dest = Array.fill[Byte](7)(9)
    b.copyTo(dest, 1)
    w.copyTo(dest, 4)
    assert(dest.toSeq == Seq[Byte](9, 1, 2, 3, 0x5a, 0x50, 9))
    val big = Array.tabulate[Byte](Scratch.MaxBytes + 1)(_.toByte)
    b.restart(16).write(big, 0, big.length)
    val copy = new Array[Byte](big.length)
    b.copyTo(copy, 0)
    assert(copy.sameElements(big))
    intercept[NullPointerException](b.toArray)
  }

  test("PositionTable: each base lies above every stored value, and the table refills before passing Int.MaxValue") {
    val t  = new PositionTable(Int.MaxValue - 25)
    val b1 = t.base(10, 4)
    t.slots(0) = b1 + 9 // the last position of a 10-position call
    val b2 = t.base(10, 4)
    assert(b1 == Int.MaxValue - 25 && b2 == b1 + 10 && t.slots(0) < b2)
    t.slots(1) = b2 + 9
    val b3 = t.base(5, 4) // ends exactly at Int.MaxValue
    assert(b3 == Int.MaxValue - 5 && t.slots.forall(_ < b3))
    t.slots(2) = b3 + 4
    val b4 = t.base(1, 4) // would pass Int.MaxValue: the table starts over
    assert(b4 == 1 && t.slots.forall(_ == 0))
    t.slots(3) = b4
    assert(t.base(3, 4) == 2 && t.slots.forall(_ < 2))
  }

  test("property: ByteBuf.writeWordLE/readWordLE roundtrip the low nBytes") {
    val wordGen = for {
      n <- Gen.oneOf(1, 2, 4, 8)
      v <- Gen.choose(Long.MinValue, Long.MaxValue)
    } yield (v, n)
    checkProp(Prop.forAll(Gen.listOfN(100, wordGen)) { words =>
      val b = new ByteBuf(4)
      words.foreach { case (v, n) => b.writeWordLE(v, n) }
      val a = b.toArray
      var pos = 0
      a.length == words.map(_._2).sum && words.forall { case (v, n) =>
        val got = ByteBuf.readWordLE(a, pos, n)
        pos += n
        got == (if (n == 8) v else v & ((1L << (8 * n)) - 1))
      }
    })
  }

  test("property: Frame.read returns the running sum of the lengths Frame.write stored") {
    val partsGen = Gen.listOf(Gen.choose(0, 300).map(n => Array.tabulate(n)(i => (i * 7 + n).toByte)))
    checkProp(Prop.forAll(partsGen, Gen.choose(0, 20)) { (parts, appended) =>
      val data    = FrameOf(parts, trailer = appended)
      val offsets = Frame.read(data, parts.length, parts.length)
      offsets.toSeq == parts.map(_.length).scanLeft(4 + 4 * parts.length)(_ + _) &&
        parts.indices.forall(i => data.slice(offsets(i), offsets(i + 1)).sameElements(parts(i))) &&
        data.length - offsets(parts.length) == appended
    })
  }

  test("Frame.read rejects a count outside the accepted range or past the stream") {
    val data = FrameOf(Seq(Array[Byte](1, 2), Array[Byte](3)))
    assert(Frame.read(data, 1, 2).toSeq == Seq(12, 14, 15))
    intercept[IllegalArgumentException](Frame.read(data, 3, 3))
    intercept[IllegalArgumentException](Frame.read(data, 0, 1))
    intercept[IllegalArgumentException](Frame.read(data.take(3), 0, 2))
    // a count of 2^30: 4 * count wraps to 0 in Int arithmetic
    val huge = data.clone()
    huge(0) = 0; huge(1) = 0; huge(2) = 0; huge(3) = 0x40
    intercept[IllegalArgumentException](Frame.read(huge, 0, Int.MaxValue))
  }

  test("property: Frame.fixedRanges tiles 0 until len with ranges of the given size") {
    checkProp(Prop.forAll(Gen.choose(0, 100000), Gen.choose(1, 70000)) { (len, size) =>
      val r = Frame.fixedRanges(len, size)
      r.head._1 == 0 && r.last._2 == len && r.zip(r.tail).forall { case (a, b) => a._2 == b._1 } &&
        r.init.forall { case (from, until) => until - from == size } &&
        r.last._2 - r.last._1 <= size && (len == 0 || r.last._2 > r.last._1)
    })
    // (i + 1) * size overflows Int for the last range
    assert(Frame.fixedRanges(Int.MaxValue, 1 << 30) == Seq((0, 1 << 30), (1 << 30, Int.MaxValue)))
    intercept[IllegalArgumentException](Frame.fixedRanges(10, 0))
  }

  test("Words.pack is identity for doubles") {
    val blk = FpBlock.fromDoubles(Array(1.0, 2.0, 3.0))
    assert(Words.pack(blk) eq blk.bits)
    assert(Words.unpack(Words.pack(blk), Precision.Double, blk.extent).bits.sameElements(blk.bits))
  }

  test("Words packs two singles per word, low half first") {
    val blk = FpBlock(Precision.Single, Seq(3L), Array(0x11223344L, 0xaabbccddL, 0x55667788L))
    val w   = Words.pack(blk)
    assert(w.length == 2)
    assert(w(0) == 0xaabbccdd11223344L)
    assert(w(1) == 0x0000000055667788L)
    val back = Words.unpack(w, Precision.Single, Seq(3L))
    assert(back.bits.sameElements(blk.bits))
  }

  test("property: Words pack/unpack roundtrips single precision") {
    val gen = Gen.listOf(Gen.choose(0L, 0xffffffffL)).suchThat(_.nonEmpty)
    checkProp(Prop.forAll(gen) { xs =>
      val blk = FpBlock(Precision.Single, Seq(xs.length.toLong), xs.toArray)
      Words.unpack(Words.pack(blk), Precision.Single, blk.extent).bits.sameElements(blk.bits)
    }, minTests = 40)
  }

  test("FpBlock toBytes/fromBytes roundtrips both precisions") {
    val rng = new scala.util.Random(5)
    val d   = FpBlock.fromDoubles(Array.fill(777)(rng.nextDouble() * 1e9))
    assert(FpBlock.fromBytes(Precision.Double, d.extent, d.toBytes).bits.sameElements(d.bits))
    val s = FpBlock.fromFloats(Array.fill(333)(rng.nextFloat()))
    assert(FpBlock.fromBytes(Precision.Single, s.extent, s.toBytes).bits.sameElements(s.bits))
  }

  /** Bit patterns biased towards NaN payloads (quiet and signalling), the
    * infinities, signed zeros and subnormals.
    */
  private val doubleBits: Gen[Long] = Gen.frequency(
    3 -> Gen.choose(Long.MinValue, Long.MaxValue),
    1 -> Gen.oneOf(0x7ff8000000000000L, 0x7ff8000000abcdefL, 0x7ff0000000000001L, -1L,
                   0x7ff0000000000000L, 0xfff0000000000000L, 0L, 0x8000000000000000L,
                   1L, 0x000fffffffffffffL, 0x800fffffffffffffL))
  private val floatBits: Gen[Int] = Gen.frequency(
    3 -> Gen.choose(Int.MinValue, Int.MaxValue),
    1 -> Gen.oneOf(0x7fc00000, 0x7fc00abc, 0x7f800001, -1, 0x7f800000, 0xff800000,
                   0, 0x80000000, 1, 0x007fffff, 0x807fffff))

  test("property: FpBlock's conversion loops give the bits of the Array.map forms") {
    def raw(ds: Array[Double]): Array[Long] = ds.map(java.lang.Double.doubleToRawLongBits)
    checkProp(Prop.forAll(Gen.nonEmptyListOf(doubleBits), Gen.nonEmptyListOf(floatBits)) { (dl, fl) =>
      val doubles = dl.toArray.map(java.lang.Double.longBitsToDouble)
      val floats  = fl.toArray.map(java.lang.Float.intBitsToFloat)
      val d       = FpBlock.fromDoubles(doubles)
      val s       = FpBlock.fromFloats(floats)
      // The forms the loops replaced, kept as the oracle.
      val sBits   = floats.map(f => java.lang.Float.floatToRawIntBits(f).toLong & 0xffffffffL)
      d.bits.sameElements(raw(doubles)) &&
        raw(d.toDoubles).sameElements(raw(d.bits.map(java.lang.Double.longBitsToDouble))) &&
        s.bits.sameElements(sBits) &&
        raw(s.toDoubles).sameElements(raw(s.bits.map(b => java.lang.Float.intBitsToFloat(b.toInt).toDouble)))
    }, minTests = 100)
  }

  test("FpBlock.as1d erases shape but keeps data") {
    val b = FpBlock.fromDoubles(Array.tabulate(12)(_.toDouble), Seq(3L, 4L))
    assert(b.as1d.extent == Seq(12L))
    assert(b.as1d.bits.sameElements(b.bits))
  }

  test("FpBlock rejects inconsistent extent") {
    intercept[IllegalArgumentException] {
      FpBlock(Precision.Double, Seq(5L), new Array[Long](4))
    }
  }

  test("Parallel.map preserves order and runs all items") {
    val out = Parallel.map((1 to 100).toIndexedSeq, 7)(_ * 2)
    assert(out == (1 to 100).map(_ * 2))
  }

  test("Parallel.map propagates exceptions") {
    intercept[Exception] {
      Parallel.map((1 to 10).toIndexedSeq, 4)(i => if (i == 5) throw new RuntimeException("boom") else i)
    }
  }

  test("CodecRegistry exposes the 14 evaluated methods") {
    val names = CodecRegistry.all.map(_.name)
    assert(names.size == 14)
    assert(names.distinct.size == 14)
    assert(CodecRegistry.cpu.size == 9 && CodecRegistry.gpu.size == 5)
    assert(CodecRegistry.cpu.forall(_.platform == "CPU"))
    assert(CodecRegistry.gpu.forall(_.platform == "GPU"))
    intercept[IllegalArgumentException](CodecRegistry.byName("zip2000"))
  }

  test("ThreadedCodec identification matches the paper's parallel methods") {
    val parallelNames = CodecRegistry.all.collect { case c: ThreadedCodec => c.name }.toSet
    assert(parallelNames == Set("pFPC", "shf+LZ4", "shf+zstd", "ndzip-C"))
  }
}
