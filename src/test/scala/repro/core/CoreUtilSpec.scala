package repro.core

import repro.{PropSupport, SparkSpec}
import org.scalacheck.{Gen, Prop}
import org.scalacheck.Prop.propBoolean

class CoreUtilSpec extends SparkSpec with PropSupport {

  test("BitWriter copyTo writes the toArray bytes at an offset") {
    val w = new BitWriter(4)
    w.writeBits(0x5a5L, 12) // one whole byte and 4 pending bits
    val dest = Array.fill[Byte](4)(9)
    w.copyTo(dest, 1)
    assert(dest.toSeq == Seq[Byte](9, 0x5a, 0x50, 9))
    val big = Array.tabulate[Byte](Scratch.MaxBytes + 1)(_.toByte)
    w.restart(16)
    big.foreach(b => w.writeBits(b, 8))
    val copy = new Array[Byte](big.length)
    w.copyTo(copy, 0)
    assert(copy.sameElements(big))
    intercept[NullPointerException](w.toArray)
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

  test("property: Words.readWordLE reads back writeWordLE") {
    val wordGen = for {
      n <- Gen.choose(1, 8)
      v <- Gen.choose(Long.MinValue, Long.MaxValue)
    } yield (v, n)
    checkProp(Prop.forAll(Gen.listOfN(100, wordGen)) { words =>
      val a    = new Array[Byte](words.map(_._2).sum)
      val offs = words.map(_._2).scanLeft(0)(_ + _)
      words.zip(offs).foreach { case ((v, n), off) => Words.writeWordLE(a, off, v, n) }
      def throws(f: => Unit) =
        try { f; false } catch { case _: ArrayIndexOutOfBoundsException => true }
      words.zip(offs).forall { case ((v, n), off) =>
        Words.readWordLE(a, off, n) == (v & Words.mask(8 * n)) &&
          (0 until n).forall(i => a(off + i) == (v >>> (8 * i)).toByte)
      } && (1 to 8).forall { n => // a word past the array's last whole word
        throws(Words.readWordLE(a, a.length - n + 1, n)) && throws(Words.writeWordLE(a.clone, a.length - n + 1, 0L, n))
      }
    })
    // The fixed-width accessors: the bytes of writeWordLE/readWordLE at their
    // width, reversed for big-endian, at every offset up to the last whole word.
    val accessorGen = for {
      acc  <- Gen.oneOf(accessors)
      a    <- Gen.choose(0, 24).flatMap(Gen.listOfN(_, Gen.choose(Byte.MinValue, Byte.MaxValue)).map(_.toArray))
      v    <- Gen.choose(Long.MinValue, Long.MaxValue)
      past <- Gen.choose(1, 9)
    } yield (acc, a, v, past)
    checkProp(Prop.forAll(accessorGen) { case ((name, n, bigEndian, load, store), a, v, past) =>
      val bits = 8 * n
      def order(x: Long) = if (bigEndian) java.lang.Long.reverseBytes(x) >>> (64 - bits) else x & Words.mask(bits)
      val inRange = (0 to a.length - n).forall { off =>
        val stored = a.clone
        store.foreach(_(stored, off, v))
        val expected = a.clone
        if (store.isDefined) Words.writeWordLE(expected, off, order(v), n)
        load(a, off) == order(Words.readWordLE(a, off, n)) && stored.sameElements(expected)
      }
      def throws(f: => Unit) =
        try { f; false } catch { case _: ArrayIndexOutOfBoundsException => true }
      val off = math.max(0, a.length - n + 1) + past - 1 // past the last whole word
      val outOfRange = throws(load(a, off)) && throws(load(a, -1)) &&
        store.forall(s => throws(s(a.clone, off, v)) && throws(s(a.clone, -1, v)))
      (inRange && outOfRange) :| name
    }, minTests = 200)
  }

  /** Each fixed-width accessor of [[Words]]: its name, width in bytes, byte
    * order, load (as the low bits of a Long) and store, if it has one.
    */
  private val accessors: Seq[(String, Int, Boolean, (Array[Byte], Int) => Long, Option[(Array[Byte], Int, Long) => Unit])] = Seq(
    ("longLE", 8, false, Words.longLE(_, _), Some(Words.putLongLE(_, _, _))),
    ("longBE", 8, true, Words.longBE(_, _), Some(Words.putLongBE(_, _, _))),
    ("intLE", 4, false, (b, i) => Words.intLE(b, i) & 0xffffffffL, Some((b, i, v) => Words.putIntLE(b, i, v.toInt))),
    ("intBE", 4, true, (b, i) => Words.intBE(b, i) & 0xffffffffL, None),
    ("shortLE", 2, false, (b, i) => Words.shortLE(b, i).toLong, Some((b, i, v) => Words.putShortLE(b, i, v.toInt))))

  test("property: Words.unzigzag inverts zigzag, which keeps small residuals small") {
    val gen = for {
      w <- Gen.oneOf(32, 64)
      v <- Gen.choose(Long.MinValue, Long.MaxValue)
    } yield (w, v)
    checkProp(Prop.forAll(gen) { case (w, v) =>
      val z = Words.zigzag(v, w)
      (z & ~Words.mask(w)) == 0 && (Words.unzigzag(z) & Words.mask(w)) == (v & Words.mask(w))
    }, minTests = 200)
    assert(Seq(0L, -1L, 1L, -2L, 2L).map(Words.zigzag(_, 64)) == Seq(0L, 1L, 2L, 3L, 4L))
    assert(Words.zigzag(0xffffffffL, 32) == 1L && Words.zigzag(0x80000000L, 32) == 0xffffffffL)
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

  test("Parallel.map at every swept width leaves at most 64 pool threads alive") {
    for (t <- Seq(1, 2, 4, 8, 16, 24, 32)) Parallel.map((1 to 4 * t).toIndexedSeq, t)(_ + 1)
    val alive = Thread.getAllStackTraces.keySet.toArray(Array.empty[Thread])
      .count(th => th.isAlive && th.getName.startsWith("repro-parallel"))
    assert(alive <= 64, s"$alive pool threads alive")
  }

  test("Parallel.map throws only after every item has stopped") {
    val running = new java.util.concurrent.atomic.AtomicInteger
    val e = intercept[IllegalStateException] {
      Parallel.map((0 until 16).toIndexedSeq, 8) { i =>
        running.incrementAndGet()
        try { if (i == 0) throw new IllegalStateException("item 0") else Thread.sleep(200) }
        finally running.decrementAndGet()
      }
    }
    assert(e.getMessage == "item 0")
    assert(running.get == 0, s"${running.get} items still running")
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
