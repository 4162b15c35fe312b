package repro.codecs.cpu

import repro.core.{FpBlock, FrameOf, Words}

/** The pFPC encoder that buffered each pair's codes and residuals and wrote
  * them one byte at a time through a `java.io.ByteArrayOutputStream`, kept
  * as the oracle the word-at-a-time coder must match (see [[PfpcSpec]]).
  * Its FCM/DFCM tables are new for every chunk.
  */
object BytewisePfpc {
  private val TableBits = 16
  private val TableMask = (1 << TableBits) - 1

  private def fcmHash(h: Int, v: Long): Int      = ((h << 6) ^ (v >>> 48).toInt) & TableMask
  private def dfcmHash(h: Int, delta: Long): Int = ((h << 2) ^ (delta >>> 40).toInt) & TableMask

  private def encodeLzb(lzb: Int): Int = if (lzb >= 5) lzb - 1 else lzb
  private def decodeLzb(code: Int): Int = if (code >= 4) code + 1 else code

  def compress(block: FpBlock, threads: Int): Array[Byte] = {
    val words = Words.pack(block)
    val k     = math.max(1, math.min(threads, words.length))
    val parts = (0 until k).map { i =>
      compressChunk(words, (words.length.toLong * i / k).toInt, (words.length.toLong * (i + 1) / k).toInt)
    }
    FrameOf(parts)
  }

  private def compressChunk(words: Array[Long], from: Int, until: Int): Array[Byte] = {
    val out   = new java.io.ByteArrayOutputStream((until - from) * 8 / 2 + 16)
    val fcm   = new Array[Long](1 << TableBits)
    val dfcm  = new Array[Long](1 << TableBits)
    var fHash = 0
    var dHash = 0
    var last  = 0L

    val codes = new Array[Int](2)
    val resid = new Array[Long](2)
    var pair  = 0

    def flushPair(count: Int): Unit = {
      out.write((codes(0) << 4) | (if (count > 1) codes(1) else 0))
      var j = 0
      while (j < count) {
        val lzb = decodeLzb(codes(j) & 7)
        var b   = 8 - lzb - 1
        while (b >= 0) { out.write(((resid(j) >>> (8 * b)) & 0xff).toInt); b -= 1 }
        j += 1
      }
    }

    var i = from
    while (i < until) {
      val v  = words(i)
      val pF = fcm(fHash)
      val pD = dfcm(dHash) + last
      fcm(fHash) = v
      fHash = fcmHash(fHash, v)
      dfcm(dHash) = v - last
      dHash = dfcmHash(dHash, v - last)
      last = v

      val xF   = v ^ pF
      val xD   = v ^ pD
      val useF = java.lang.Long.numberOfLeadingZeros(xF) >= java.lang.Long.numberOfLeadingZeros(xD)
      val x    = if (useF) xF else xD
      var lzb  = java.lang.Long.numberOfLeadingZeros(x) / 8
      if (lzb == 4) lzb = 3
      codes(pair) = ((if (useF) 0 else 1) << 3) | encodeLzb(lzb)
      resid(pair) = x
      pair += 1
      if (pair == 2) { flushPair(2); pair = 0 }
      i += 1
    }
    if (pair == 1) flushPair(1)
    out.toByteArray
  }
}
