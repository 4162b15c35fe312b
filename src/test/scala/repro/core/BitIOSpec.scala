package repro.core

import repro.{PropSupport, SparkSpec}
import org.scalacheck.{Gen, Prop}

class BitIOSpec extends SparkSpec with PropSupport {
  import BitIOSpec._

  test("single bits roundtrip") {
    val w = new BitWriter()
    val bits = Seq(1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1)
    bits.foreach(w.writeBit)
    val r = new BitReader(w.toArray)
    assert(bits.map(_ => r.readBit()) == bits)
  }

  test("full 64-bit words roundtrip") {
    val w = new BitWriter()
    val vals = Seq(-1L, 0L, Long.MinValue, Long.MaxValue, 0xdeadbeefL)
    vals.foreach(v => w.writeBits(v, 64))
    val r = new BitReader(w.toArray)
    vals.foreach(v => assert(r.readBits(64) == v))
  }

  test("mixed widths roundtrip") {
    val w = new BitWriter()
    w.writeBits(5, 3); w.writeBits(1023, 10); w.writeBits(0, 7); w.writeBits(1, 1)
    w.writeBits(0xffffL, 16)
    val r = new BitReader(w.toArray)
    assert(r.readBits(3) == 5)
    assert(r.readBits(10) == 1023)
    assert(r.readBits(7) == 0)
    assert(r.readBits(1) == 1)
    assert(r.readBits(16) == 0xffffL)
  }

  test("aligned bytes interleave with bits") {
    val w = new BitWriter()
    w.writeBits(5, 3)
    w.writeAlignedBytes(Array[Byte](1, 2, 3), 0, 3)
    w.writeBits(9, 5)
    val r = new BitReader(w.toArray)
    assert(r.readBits(3) == 5)
    assert(r.readAlignedBytes(3).toSeq == Seq[Byte](1, 2, 3))
    assert(r.readBits(5) == 9)
  }

  test("sizeBits tracks written bits exactly") {
    val w = new BitWriter()
    w.writeBits(1, 1); assert(w.sizeBits == 1)
    w.writeBits(0, 13); assert(w.sizeBits == 14)
    w.align(); assert(w.sizeBits == 16)
  }

  test("property: arbitrary (value, width) sequences roundtrip") {
    val pairGen = for {
      width <- Gen.choose(1, 64)
      value <- Gen.choose(Long.MinValue, Long.MaxValue)
    } yield (value & (if (width == 64) -1L else (1L << width) - 1), width)
    checkProp(Prop.forAll(Gen.listOfN(200, pairGen)) { pairs =>
      val w = new BitWriter()
      pairs.foreach { case (v, n) => w.writeBits(v, n) }
      val r = new BitReader(w.toArray)
      pairs.forall { case (v, n) => r.readBits(n) == v }
    })
  }

  test("writer grows past initial capacity") {
    val w = new BitWriter(4)
    (0 until 10000).foreach(i => w.writeBits(i.toLong, 17))
    val r = new BitReader(w.toArray)
    (0 until 10000).foreach(i => assert(r.readBits(17) == i.toLong))
  }

  test("reading past the end of the stream throws") {
    val w = new BitWriter()
    w.writeBits(0x1abcL, 13)
    val bytes = w.toArray
    val r = new BitReader(bytes)
    assert(r.readBits(13) == 0x1abcL)
    assert(r.readBits(3) == 0) // zero padding inside the last byte
    intercept[ArrayIndexOutOfBoundsException](r.readBit())
    intercept[ArrayIndexOutOfBoundsException](new BitReader(bytes).readBits(17))
    intercept[ArrayIndexOutOfBoundsException](new BitReader(new Array[Byte](7)).readBits(64))
    intercept[ArrayIndexOutOfBoundsException](new BitReader(bytes, 2).readBits(1))
    intercept[ArrayIndexOutOfBoundsException](new BitReader(bytes, 1).readAlignedBytes(2))
  }

  test("property: writer and reader match the byte-at-a-time oracle after every op") {
    checkProp(Prop.forAllNoShrink(opsGen, Gen.choose(0, 9)) { (ops, prefixLen) =>
      val failure = writeMismatch(ops).orElse(readMismatch(ops, prefixLen))
      Prop.propBoolean(failure.isEmpty) :| failure.getOrElse("")
    }, minTests = 300)
  }
}

object BitIOSpec {
  sealed trait Op
  final case class Bits(value: Long, n: Int) extends Op
  final case class Bit(b: Int)               extends Op
  case object Align                          extends Op
  final case class AlignedBytes(bytes: Array[Byte], off: Int, len: Int) extends Op {
    override def toString: String = s"AlignedBytes(${bytes.mkString("[", ", ", "]")}, $off, $len)"
  }

  /** Sequences of writes whose values carry bits above their width. */
  val opsGen: Gen[List[Op]] = {
    val bits = for {
      n <- Gen.frequency(4 -> Gen.choose(0, 64), 1 -> Gen.oneOf(0, 1, 55, 56, 57, 63, 64))
      v <- Gen.choose(Long.MinValue, Long.MaxValue)
    } yield Bits(v, n)
    val bit = Gen.choose(-3, 3).map(Bit(_))
    val aligned = for {
      bytes <- Gen.choose(0, 12).flatMap(k => Gen.listOfN(k, Gen.choose(Byte.MinValue, Byte.MaxValue)))
      off   <- Gen.choose(0, bytes.length)
      len   <- Gen.choose(0, bytes.length - off)
    } yield AlignedBytes(bytes.toArray, off, len)
    Gen.choose(0, 80).flatMap(k =>
      Gen.listOfN(k, Gen.frequency(10 -> bits, 4 -> bit, 1 -> Gen.const(Align), 1 -> aligned)))
  }

  /** Applies `ops` to a `BitWriter` and the oracle, comparing them after each. */
  def writeMismatch(ops: List[Op]): Option[String] = {
    val w = new BitWriter(4)
    val o = new ByteLoopBitWriter(4)
    ops.iterator.zipWithIndex.map { case (op, i) =>
      op match {
        case Bits(v, n)                => w.writeBits(v, n); o.writeBits(v, n)
        case Bit(b)                    => w.writeBit(b); o.writeBit(b)
        case Align                     => w.align(); o.align()
        case AlignedBytes(b, off, len) => w.writeAlignedBytes(b, off, len); o.writeAlignedBytes(b, off, len)
      }
      if (!w.toArray.sameElements(o.toArray)) Some(s"bytes differ after op $i: $op")
      else if (w.sizeBits != o.sizeBits) Some(s"sizeBits ${w.sizeBits} != ${o.sizeBits} after op $i: $op")
      else if (w.sizeBytes != o.sizeBytes) Some(s"sizeBytes ${w.sizeBytes} != ${o.sizeBytes} after op $i: $op")
      else None
    }.collectFirst { case Some(m) => m }
  }

  /** Reads the oracle's stream of `ops`, after `prefixLen` junk bytes, with a
    * `BitReader` and the oracle reader, op by op.
    */
  def readMismatch(ops: List[Op], prefixLen: Int): Option[String] = {
    val o = new ByteLoopBitWriter()
    ops.foreach {
      case Bits(v, n)                => o.writeBits(v, n)
      case Bit(b)                    => o.writeBit(b)
      case Align                     => o.align()
      case AlignedBytes(b, off, len) => o.writeAlignedBytes(b, off, len)
    }
    val bytes = Array.fill[Byte](prefixLen)(0x5a) ++ o.toArray
    val r     = new BitReader(bytes, prefixLen)
    val or    = new ByteLoopBitReader(bytes, prefixLen)
    ops.iterator.zipWithIndex.map { case (op, i) =>
      val same = op match {
        case Bits(_, n)              => r.readBits(n) == or.readBits(n)
        case Bit(_)                  => r.readBit() == or.readBit()
        case Align                   => r.align(); or.align(); true
        case AlignedBytes(_, _, len) => r.readAlignedBytes(len).sameElements(or.readAlignedBytes(len))
      }
      if (!same) Some(s"read differs at op $i: $op")
      else if (r.bytePosition != or.bytePosition)
        Some(s"bytePosition ${r.bytePosition} != ${or.bytePosition} after op $i: $op")
      else None
    }.collectFirst { case Some(m) => m }
  }
}
