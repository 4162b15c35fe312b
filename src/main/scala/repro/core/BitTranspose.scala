package repro.core

/** Word-parallel bit-matrix transpose, the scalar stand-in for the warp
  * shuffle / SIMD transposition in MPC's BIT stage, ndzip's residual coder
  * and bitshuffle (Hacker's Delight §7-3, in LSB-first bit order).
  */
object BitTranspose {

  /** In-place transpose of the w x w bit matrix held in `a(off until off+w)`,
    * w ∈ {32, 64}: bit j of `a(off+i)` swaps with bit i of `a(off+j)`.
    *
    * The transpose is log2(w) rounds of block swaps: round j exchanges the
    * j x j block at (rows k, columns +j) with the one at (rows k+j, columns
    * +0) for every row k with bit j clear. Only the low w bits of each word
    * are read or written, so for w = 32 the high halves are left as they are.
    *
    * The rounds run in two passes over blocks of 8 words held in locals, so
    * each word is loaded and stored twice, not once per round. Rounds j ≥ 8
    * pair rows 8 or more apart: the first pass runs them on each set of rows
    * {k, k+8, k+16, …} (k < 8), which they never leave. Rounds 4, 2 and 1
    * pair rows inside each run of 8 consecutive rows: the second pass runs
    * them on each run. Every swap is one of the log2(w)-round form's, with
    * its mask, and swaps on different blocks touch different words, so the
    * result is the same bit for bit.
    */
  def square(a: Array[Long], off: Int, w: Int): Unit =
    if (w == 64) {
      var k = 0
      while (k < 8) { block8(a, off + k, 8, 32, M32, M16, M8); k += 1 }
      k = 0
      while (k < 64) { block8(a, off + k, 1, 4, M4, M2, M1); k += 8 }
    } else {
      if (w != 32) throw new IllegalArgumentException(s"bit transpose width must be 32 or 64: $w")
      square32(a, off, 0x0000ffffL, 0x00ff00ffL, 0x0f0f0f0fL, 0x33333333L, 0x55555555L)
    }

  /** Two 32 x 32 transposes at once in `a(off until off+32)`: one of the low
    * halves, as `square(a, off, 32)` does, and one of the high halves. These
    * are the last five rounds of the 64 x 64 transpose, with its masks.
    */
  def squarePair32(a: Array[Long], off: Int): Unit = square32(a, off, M16, M8, M4, M2, M1)

  // The masks of rounds 32 … 1 over whole 64-bit words: round j swaps the
  // bits of row k at the mask shifted up by j with those of row k + j at it.
  private final val M32 = 0x00000000ffffffffL
  private final val M16 = 0x0000ffff0000ffffL
  private final val M8  = 0x00ff00ff00ff00ffL
  private final val M4  = 0x0f0f0f0f0f0f0f0fL
  private final val M2  = 0x3333333333333333L
  private final val M1  = 0x5555555555555555L

  /** Rounds 16 and 8 on each set {k, k+8, k+16, k+24}, then rounds 4, 2, 1
    * on each run of 8 rows, of the 32 rows at `off`, with the rounds' masks.
    */
  private def square32(a: Array[Long], off: Int, m16: Long, m8: Long, m4: Long, m2: Long,
                       m1: Long): Unit = {
    var k = 0
    while (k < 8) {
      val i = off + k
      var x0 = a(i); var x1 = a(i + 8); var x2 = a(i + 16); var x3 = a(i + 24)
      var t = 0L
      t = ((x0 >>> 16) ^ x2) & m16; x2 ^= t; x0 ^= t << 16
      t = ((x1 >>> 16) ^ x3) & m16; x3 ^= t; x1 ^= t << 16
      t = ((x0 >>> 8) ^ x1) & m8; x1 ^= t; x0 ^= t << 8
      t = ((x2 >>> 8) ^ x3) & m8; x3 ^= t; x2 ^= t << 8
      a(i) = x0; a(i + 8) = x1; a(i + 16) = x2; a(i + 24) = x3
      k += 1
    }
    k = 0
    while (k < 32) { block8(a, off + k, 1, 4, m4, m2, m1); k += 8 }
  }

  /** Three rounds on the 8 rows `o, o + s, …, o + 7s`: rounds j, j/2 and
    * j/4, which pair rows 4s, 2s and s apart, with masks `ma`, `mb`, `mc`.
    */
  private def block8(a: Array[Long], o: Int, s: Int, j: Int, ma: Long, mb: Long, mc: Long): Unit = {
    var x0 = a(o);         var x1 = a(o + s);     var x2 = a(o + 2 * s); var x3 = a(o + 3 * s)
    var x4 = a(o + 4 * s); var x5 = a(o + 5 * s); var x6 = a(o + 6 * s); var x7 = a(o + 7 * s)
    val jb = j >>> 1
    val jc = j >>> 2
    var t = 0L
    t = ((x0 >>> j) ^ x4) & ma; x4 ^= t; x0 ^= t << j
    t = ((x1 >>> j) ^ x5) & ma; x5 ^= t; x1 ^= t << j
    t = ((x2 >>> j) ^ x6) & ma; x6 ^= t; x2 ^= t << j
    t = ((x3 >>> j) ^ x7) & ma; x7 ^= t; x3 ^= t << j
    t = ((x0 >>> jb) ^ x2) & mb; x2 ^= t; x0 ^= t << jb
    t = ((x1 >>> jb) ^ x3) & mb; x3 ^= t; x1 ^= t << jb
    t = ((x4 >>> jb) ^ x6) & mb; x6 ^= t; x4 ^= t << jb
    t = ((x5 >>> jb) ^ x7) & mb; x7 ^= t; x5 ^= t << jb
    t = ((x0 >>> jc) ^ x1) & mc; x1 ^= t; x0 ^= t << jc
    t = ((x2 >>> jc) ^ x3) & mc; x3 ^= t; x2 ^= t << jc
    t = ((x4 >>> jc) ^ x5) & mc; x5 ^= t; x4 ^= t << jc
    t = ((x6 >>> jc) ^ x7) & mc; x7 ^= t; x6 ^= t << jc
    a(o) = x0;         a(o + s) = x1;         a(o + 2 * s) = x2; a(o + 3 * s) = x3
    a(o + 4 * s) = x4; a(o + 5 * s) = x5; a(o + 6 * s) = x6; a(o + 7 * s) = x7
  }
}
