package repro.core

/** Carry-less byte-oriented range coder (Subbotin style).
  *
  * fpzip entropy-codes the sign and leading-zero count of each residual with
  * a fast range coder [Martin 1979]; this is the equivalent JVM
  * implementation. Total frequency must stay <= 2^16 so renormalization never
  * starves the range — [[AdaptiveModel]] rescales its counts to guarantee it.
  */
object RangeCoder {
  private[core] val Top: Long  = 1L << 24
  private[core] val Bot: Long  = 1L << 16
  private[core] val Mask: Long = 0xffffffffL
}

/** Appends the coded bytes to `out`, one byte-aligned 8-bit field each, so a
  * restarted writer holds exactly the coded bytes.
  */
final class RangeEncoder(out: BitWriter) {
  import RangeCoder._
  private var low: Long     = 0L
  private var range: Long   = Mask

  def encode(cumFreq: Long, freq: Long, totFreq: Long): Unit = {
    // Not `require`: its by-name message allocates a closure per call until C2 removes it.
    if (!(freq > 0 && cumFreq + freq <= totFreq && totFreq <= Bot))
      throw new IllegalArgumentException(s"requirement failed: bad freqs: cum=$cumFreq f=$freq tot=$totFreq")
    range /= totFreq
    low = (low + cumFreq * range) & Mask
    range *= freq
    normalize()
  }

  private def normalize(): Unit = {
    while (((low ^ (low + range)) & Mask) < Top || {
             if (range < Bot) { range = (-low) & (Bot - 1); true } else false
           }) {
      out.writeBits(low >>> 24, 8)
      low = (low << 8) & Mask
      range = (range << 8) & Mask
    }
  }

  /** Flush the coder's state; `out`, which then holds the whole stream. */
  def finish(): BitWriter = {
    var i = 0
    while (i < 4) { out.writeBits(low >>> 24, 8); low = (low << 8) & Mask; i += 1 }
    out
  }
}

/** Decodes the bytes `buf(start until end)` written by a [[RangeEncoder]].
  * It reads exactly as many bytes as the encoder wrote, so a read at `end`
  * means the stream was cut short or its length was wrong: it raises
  * `IllegalArgumentException` rather than decode zeros.
  */
final class RangeDecoder(buf: Array[Byte], start: Int, end: Int) {
  import RangeCoder._
  private var pos: Int    = start
  private var low: Long   = 0L
  private var range: Long = Mask
  private var code: Long  = 0L
  require(0 <= start && start <= end && end <= buf.length,
          s"range $start until $end outside a ${buf.length}-byte buffer")
  locally { var i = 0; while (i < 4) { code = ((code << 8) | nextByte()) & Mask; i += 1 } }

  private def nextByte(): Long = {
    if (pos >= end) throw new IllegalArgumentException(s"range-coded stream ends at byte $end")
    val b = buf(pos) & 0xffL
    pos += 1
    b
  }

  /** Returns the cumulative-frequency slot of the next symbol. */
  def decodeFreq(totFreq: Long): Long = {
    range /= totFreq
    math.min(totFreq - 1, ((code - low) & Mask) / range)
  }

  /** Commit to the decoded symbol's (cumFreq, freq). */
  def decodeUpdate(cumFreq: Long, freq: Long): Unit = {
    low = (low + cumFreq * range) & Mask
    range *= freq
    while (((low ^ (low + range)) & Mask) < Top || {
             if (range < Bot) { range = (-low) & (Bot - 1); true } else false
           }) {
      code = ((code << 8) | nextByte()) & Mask
      low = (low << 8) & Mask
      range = (range << 8) & Mask
    }
  }

  /** Bytes consumed from the input so far. */
  def bytesConsumed: Int = pos - start
}

/** Order-0 adaptive frequency model over a small alphabet.
  *
  * Counts start at 1 (no zero-frequency symbols) and halve when the total
  * reaches 2^15, keeping the range coder's invariant totFreq <= 2^16.
  */
final class AdaptiveModel(val alphabet: Int) {
  private val freq  = Array.fill(alphabet)(1L)
  private var total = alphabet.toLong

  def encodeSymbol(enc: RangeEncoder, sym: Int): Unit = {
    var cum = 0L; var i = 0
    while (i < sym) { cum += freq(i); i += 1 }
    enc.encode(cum, freq(sym), total)
    update(sym)
  }

  def decodeSymbol(dec: RangeDecoder): Int = {
    val slot = dec.decodeFreq(total)
    var cum  = 0L; var sym = 0
    while (cum + freq(sym) <= slot) { cum += freq(sym); sym += 1 }
    dec.decodeUpdate(cum, freq(sym))
    update(sym)
    sym
  }

  private def update(sym: Int): Unit = {
    freq(sym) += 32
    total += 32
    if (total >= (1L << 15)) {
      total = 0
      var i = 0
      while (i < alphabet) { freq(i) = (freq(i) + 1) / 2; total += freq(i); i += 1 }
    }
  }
}
