package repro.lz

import repro.core._

/** The `Lza6.compress` that kept one `prev` link per input byte and
  * extended every in-window candidate byte by byte, kept as the oracle the
  * window-ring match finder must match byte for byte and in its
  * `WorkProfile` (see [[Lza6Spec]]). Its `head` table is allocated per call
  * instead of reused per thread, which changes no output.
  */
object FullPrevLza6 {
  private val MinMatch  = 4
  private val Window    = 1 << 16
  private val HashBits  = 16
  private val MaxChain  = 48

  private def hash4(b: Array[Byte], i: Int): Int = {
    val v = ((b(i) & 0xff) << 24) | ((b(i + 1) & 0xff) << 16) |
            ((b(i + 2) & 0xff) << 8) | (b(i + 3) & 0xff)
    (v * -1640531527) >>> (32 - HashBits) // Knuth multiplicative hash
  }

  def compress(in: Array[Byte]): (Array[Byte], WorkProfile) = {
    val out   = new java.io.ByteArrayOutputStream(in.length / 2 + 64)
    val head  = Array.fill(1 << HashBits)(-1)
    val prev  = new Array[Int](in.length)
    var ops   = 0L

    var i       = 0
    var litFrom = 0

    def emit(litEnd: Int, matchLen: Int, offset: Int): Unit = {
      val litLen = litEnd - litFrom
      val litTok = math.min(litLen, 15)
      val matTok = if (matchLen == 0) 0 else math.min(matchLen - MinMatch, 15)
      out.write((litTok << 4) | matTok)
      if (litLen >= 15) { var r = litLen - 15; while (r >= 255) { out.write(255); r -= 255 }; out.write(r) }
      out.write(in, litFrom, litLen)
      if (matchLen > 0) {
        out.write(offset & 0xff); out.write((offset >>> 8) & 0xff)
        if (matchLen - MinMatch >= 15) {
          var r = matchLen - MinMatch - 15; while (r >= 255) { out.write(255); r -= 255 }; out.write(r)
        }
      }
    }

    while (i + MinMatch <= in.length) {
      val h       = hash4(in, i)
      var cand    = head(h)
      var bestLen = 0
      var bestOff = 0
      var chain   = 0
      while (cand >= 0 && i - cand <= Window - 1 && chain < MaxChain) {
        ops += 8
        var l   = 0
        val max = in.length - i
        while (l < max && in(cand + l) == in(i + l)) l += 1
        if (l > bestLen) { bestLen = l; bestOff = i - cand }
        cand = prev(cand)
        chain += 1
      }
      if (bestLen >= MinMatch) {
        emit(i, bestLen, bestOff)
        // Index every position inside the match so later matches can land here.
        val end = i + bestLen
        while (i < end && i + MinMatch <= in.length) {
          val hh = hash4(in, i); prev(i) = head(hh); head(hh) = i; i += 1
        }
        i = end
        litFrom = i
      } else {
        prev(i) = head(h); head(h) = i
        i += 1
      }
    }
    if (litFrom < in.length || in.isEmpty) emit(in.length, 0, 0)
    else if (litFrom == in.length && out.size == 0) emit(in.length, 0, 0)

    val bytes = out.toByteArray
    (bytes, WorkProfile(in.length.toLong * 4, bytes.length, ops + in.length.toLong * 6, divergent = true))
  }
}
