package repro.core

import repro.{PropSupport, SparkSpec}
import org.scalacheck.{Gen, Prop}
import scala.util.{Failure, Success, Try}

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
  }

  test("property: reads in the last 8 bytes of a stream match the oracle and throw where it does") {
    // Streams of 0..24 bytes put every refill within 8 bytes of the end.
    val gen = for {
      len       <- Gen.choose(0, 24)
      bytes     <- Gen.listOfN(len, Gen.choose(Byte.MinValue, Byte.MaxValue))
      prefixLen <- Gen.choose(0, 9)
      widths    <- Gen.listOfN(40, Gen.frequency(4 -> Gen.choose(0, 64), 1 -> Gen.choose(57, 64)))
    } yield (Array.fill[Byte](prefixLen)(0x5a) ++ bytes, prefixLen, widths)
    checkProp(Prop.forAllNoShrink(gen) { case (bytes, prefixLen, widths) =>
      val failure = tailMismatch(bytes, prefixLen, widths)
      Prop.propBoolean(failure.isEmpty) :| failure.getOrElse("")
    }, minTests = 300)
  }

  test("property: writer and reader match the byte-at-a-time oracle after every op") {
    checkProp(Prop.forAllNoShrink(opsGen, Gen.choose(0, 9)) { (ops, prefixLen) =>
      val failure = writeMismatch(ops).orElse(readMismatch(ops, prefixLen))
      Prop.propBoolean(failure.isEmpty) :| failure.getOrElse("")
    }, minTests = 300)
  }

  test("a writer lets go of an array over the cap in toArray and fails loudly until restarted") {
    val w = new BitWriter(16)
    val big = Array.tabulate[Byte](Scratch.MaxBytes + 1)(_.toByte)
    w.writeBits(5, 3)
    w.align()
    big.foreach(b => w.writeBits(b, 8))
    assert(w.toArray.sameElements(0xa0.toByte +: big))
    intercept[NullPointerException](w.toArray)
    intercept[NullPointerException](w.writeBits(-1L, 64))
    w.restart(4).writeBits(0xabcL, 12)
    assert(w.toArray.toSeq == Seq(0xab.toByte, 0xc0.toByte))
    assert(w.toArray.toSeq == Seq(0xab.toByte, 0xc0.toByte)) // a kept array stays readable
  }

  test("property: a restarted writer writes over its last stream the bytes a new writer writes") {
    val kept = new BitWriter(4)
    checkProp(Prop.forAllNoShrink(opsGen, Gen.choose(0, 200)) { (ops, capacity) =>
      val fresh = new BitWriter(4)
      kept.restart(capacity)
      ops.foreach { op => applyOp(kept, op); applyOp(fresh, op) }
      Prop.propBoolean(kept.toArray.sameElements(fresh.toArray) && kept.sizeBits == fresh.sizeBits) :|
        s"capacity $capacity, ops $ops"
    }, minTests = 300)
  }
}

object BitIOSpec {
  sealed trait Op
  final case class Bits(value: Long, n: Int) extends Op
  final case class Bit(b: Int)               extends Op
  case object Align                          extends Op

  /** Sequences of writes whose values carry bits above their width. */
  val opsGen: Gen[List[Op]] = {
    val bits = for {
      n <- Gen.frequency(4 -> Gen.choose(0, 64), 1 -> Gen.oneOf(0, 1, 55, 56), 1 -> Gen.choose(57, 64))
      v <- Gen.choose(Long.MinValue, Long.MaxValue)
    } yield Bits(v, n)
    val bit = Gen.choose(-3, 3).map(Bit(_))
    Gen.choose(0, 80).flatMap(k =>
      Gen.listOfN(k, Gen.frequency(10 -> bits, 4 -> bit, 1 -> Gen.const(Align))))
  }

  def applyOp(w: BitWriter, op: Op): Unit = op match {
    case Bits(v, n) => w.writeBits(v, n)
    case Bit(b)     => w.writeBit(b)
    case Align      => w.align()
  }

  /** Applies `ops` to a `BitWriter` and the oracle, comparing them after each. */
  def writeMismatch(ops: List[Op]): Option[String] = {
    val w = new BitWriter(4)
    val o = new ByteLoopBitWriter(4)
    ops.iterator.zipWithIndex.map { case (op, i) =>
      op match {
        case Bits(v, n) => w.writeBits(v, n); o.writeBits(v, n)
        case Bit(b)     => w.writeBit(b); o.writeBit(b)
        case Align      => w.align(); o.align()
      }
      if (!w.toArray.sameElements(o.toArray)) Some(s"bytes differ after op $i: $op")
      else if (w.sizeBits != o.sizeBits) Some(s"sizeBits ${w.sizeBits} != ${o.sizeBits} after op $i: $op")
      else if (w.sizeBytes != o.sizeBytes) Some(s"sizeBytes ${w.sizeBytes} != ${o.sizeBytes} after op $i: $op")
      else None
    }.collectFirst { case Some(m) => m }
  }

  /** Reads `bytes` from `start` with `widths` until the oracle runs past the
    * end, and checks that a `BitReader` returns the same values and then
    * throws as well.
    */
  def tailMismatch(bytes: Array[Byte], start: Int, widths: List[Int]): Option[String] = {
    val r  = new BitReader(bytes, start)
    val or = new ByteLoopBitReader(bytes, start)
    @annotation.tailrec
    def loop(reads: List[(Int, Int)]): Option[String] = reads match {
      case Nil => None
      case (n, i) :: rest =>
        val got = Try(r.readBits(n))
        Try(or.readBits(n)) match {
          case Success(v) if !got.toOption.contains(v) => Some(s"read $i of $n bits: $got, oracle $v")
          case Success(_) if r.bytePosition != or.bytePosition =>
            Some(s"bytePosition ${r.bytePosition} != ${or.bytePosition} after read $i of $n bits")
          case Success(_) => loop(rest)
          case Failure(_) => got match {
            case Failure(_: ArrayIndexOutOfBoundsException) => None
            case _ => Some(s"read $i of $n bits past the end: $got, oracle threw")
          }
        }
    }
    loop(widths.zipWithIndex)
  }

  /** Reads the oracle's stream of `ops`, after `prefixLen` junk bytes, with a
    * `BitReader` and the oracle reader, op by op.
    */
  def readMismatch(ops: List[Op], prefixLen: Int): Option[String] = {
    val o = new ByteLoopBitWriter()
    ops.foreach {
      case Bits(v, n) => o.writeBits(v, n)
      case Bit(b)     => o.writeBit(b)
      case Align      => o.align()
    }
    val bytes = Array.fill[Byte](prefixLen)(0x5a) ++ o.toArray
    val r     = new BitReader(bytes, prefixLen)
    val or    = new ByteLoopBitReader(bytes, prefixLen)
    ops.iterator.zipWithIndex.map { case (op, i) =>
      val same = op match {
        case Bits(_, n) => r.readBits(n) == or.readBits(n)
        case Bit(_)     => r.readBit() == or.readBit()
        case Align      => r.align(); or.align(); true
      }
      if (!same) Some(s"read differs at op $i: $op")
      else if (r.bytePosition != or.bytePosition)
        Some(s"bytePosition ${r.bytePosition} != ${or.bytePosition} after op $i: $op")
      else None
    }.collectFirst { case Some(m) => m }
  }
}
