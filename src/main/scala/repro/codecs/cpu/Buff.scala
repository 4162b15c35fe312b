package repro.codecs.cpu

import repro.core._

/** BUFF [Liu et al., VLDB'21] — decomposed bounded floats.
  *
  * BUFF targets low-precision data (server metrics, IoT): each value is split
  * into integer and fractional parts, the fraction is kept to the bit budget
  * of the target decimal precision (Table 2 of the paper), values are stored
  * as fixed-point deltas from the block minimum, padded to whole bytes, and
  * laid out byte-plane by byte-plane ("sub-columns").
  *
  * Losslessness: the encoder *detects* the minimal decimal precision p such
  * that every value round-trips bit-exactly (p <= 10). If none exists — the
  * data is not bounded-precision — the block is stored verbatim (the paper's
  * CRs below 1.0 on HPC data reflect the same failure mode).
  *
  * Layout: [mode:1][p:1][m:1][totalBits:1][qmin:8][n byte planes, LSB first].
  */
final class Buff extends Codec {
  import Buff.Quantizer

  override def name: String     = "BUFF"
  override def platform: String = "CPU"

  /** Table 2 of the paper: fraction bits needed per decimal precision 1..10. */
  private val BitsForPrecision = Array(0, 5, 8, 11, 15, 18, 21, 25, 28, 31, 35)

  override def compress(block: FpBlock): Compressed = {
    val doubles = block.toDoubles
    val qs      = new Array[Long](block.n)
    val p       = findPrecision(doubles, block.precision, qs)
    val work    = WorkProfile(block.sizeBytes * 2, 0, block.n.toLong * 30, divergent = false)
    if (p < 0) {
      val raw = block.toBytes
      val out = new Array[Byte](raw.length + 1)
      out(0) = 0 // raw mode
      System.arraycopy(raw, 0, out, 1, raw.length)
      Compressed(out, work.copy(bytesWritten = out.length))
    } else {
      var qmin = qs(0)
      var i    = 1
      while (i < qs.length) { if (qs(i) < qmin) qmin = qs(i); i += 1 }
      var span = 0L
      i = 0
      while (i < qs.length) { if (qs(i) - qmin > span) span = qs(i) - qmin; i += 1 }
      val totalBits = math.max(1, 64 - java.lang.Long.numberOfLeadingZeros(span))
      val nBytes    = (totalBits + 7) / 8
      val out       = new Array[Byte](12 + nBytes * qs.length)
      out(0) = 1 // packed mode
      out(1) = p.toByte
      out(2) = BitsForPrecision(p).toByte
      out(3) = totalBits.toByte
      Words.writeWordLE(out, 4, qmin, 8)
      // Byte-plane (sub-column) layout: plane b holds byte b of every delta.
      var b = 0
      while (b < nBytes) {
        i = 0
        while (i < qs.length) {
          out(12 + b * qs.length + i) = (((qs(i) - qmin) >>> (8 * b)) & 0xff).toByte
          i += 1
        }
        b += 1
      }
      Compressed(out, work.copy(bytesWritten = out.length))
    }
  }

  override def decompress(data: Array[Byte], precision: Precision, extent: Seq[Long]): Decompressed = {
    val n    = extent.product.toInt
    val work = WorkProfile(data.length, n.toLong * precision.bytes, n.toLong * 12, divergent = false)
    if (data(0) == 0) {
      val raw = java.util.Arrays.copyOfRange(data, 1, data.length)
      Decompressed(FpBlock.fromBytes(precision, extent, raw), work)
    } else {
      val p         = data(1).toInt
      val m         = data(2).toInt
      val totalBits = data(3).toInt
      val nBytes    = (totalBits + 7) / 8
      val qmin      = Words.readWordLE(data, 4, 8)
      // Gather the deltas one byte plane at a time, then dequantize in place.
      val bits = new Array[Long](n)
      var b = 0
      while (b < nBytes) {
        val plane = 12 + b * n
        var i = 0
        while (i < n) { bits(i) |= (data(plane + i) & 0xffL) << (8 * b); i += 1 }
        b += 1
      }
      val quant  = new Quantizer(m, p)
      val single = precision == Precision.Single
      var i = 0
      while (i < n) {
        val d = quant.dequantize(qmin + bits(i))
        bits(i) = if (single) FpBlock.singleBits(d.toFloat) else java.lang.Double.doubleToRawLongBits(d)
        i += 1
      }
      Decompressed(FpBlock(precision, extent, bits), work)
    }
  }

  /** Find the smallest decimal precision p (0..10) such that quantizing every
    * value to BitsForPrecision(p) fraction bits round-trips bit-exactly.
    * Returns p, with the quantized values in `qs`, or -1 if there is none.
    */
  private def findPrecision(values: Array[Double], precision: Precision, qs: Array[Long]): Int = {
    val single = precision == Precision.Single
    var p = 0
    while (p <= 10) {
      val quant = new Quantizer(BitsForPrecision(p), p)
      var ok    = true
      var i     = 0
      while (ok && i < values.length) {
        val v = values(i)
        // Keep |v| * 2^m well inside Long range before quantizing; NaN and
        // the infinities fail this test too.
        if (!(math.abs(v) < quant.limit)) ok = false
        else {
          val q = math.rint(v * quant.step).toLong
          val d = quant.dequantize(q)
          val exact =
            if (single) java.lang.Float.floatToRawIntBits(d.toFloat) == java.lang.Float.floatToRawIntBits(v.toFloat)
            else java.lang.Double.doubleToRawLongBits(d) == java.lang.Double.doubleToRawLongBits(v)
          if (exact) qs(i) = q else ok = false
        }
        i += 1
      }
      if (ok) return p
      p += 1
    }
    -1
  }
}

object Buff {
  /** Fixed point with `m` fraction bits, read back at `p` decimal places.
    * The powers are exact, so computing them once per block gives the same
    * doubles as computing them per value.
    */
  private final class Quantizer(m: Int, p: Int) {
    /** 2^m: one quantization step is 1 / step. */
    val step: Double  = (1L << m).toDouble
    /** Magnitudes at or above this would overflow the fixed point. */
    val limit: Double = math.pow(2, 61 - m)
    private val scale = math.pow(10, p)

    /** Invert quantization: fixed point back to a p-decimal value. */
    def dequantize(q: Long): Double = {
      val x = q.toDouble / step
      if (p == 0) math.rint(x) else math.rint(x * scale) / scale
    }
  }
}
