package repro.core

/** Word-parallel bit-matrix transpose, the scalar stand-in for the warp
  * shuffle / SIMD transposition in MPC's BIT stage and ndzip's residual
  * coder (Hacker's Delight §7-3, in LSB-first bit order).
  */
object BitTranspose {

  /** In-place transpose of the w x w bit matrix held in `a(off until off+w)`,
    * w ∈ {32, 64}: bit j of `a(off+i)` swaps with bit i of `a(off+j)`.
    *
    * log2(w) rounds of block swaps: round j exchanges the j x j block at
    * (rows k, columns +j) with the one at (rows k+j, columns +0) for every row
    * k with bit j clear. Only the low w bits of each word are read or written,
    * so for w = 32 the high halves are left as they are.
    */
  def square(a: Array[Long], off: Int, w: Int): Unit = {
    require(w == 32 || w == 64, s"bit transpose width must be 32 or 64: $w")
    var j = w >> 1
    var m = if (w == 64) 0x00000000ffffffffL else 0x0000ffffL
    while (j != 0) {
      var k = 0
      while (k < w) {
        val lo = off + k
        val hi = lo + j
        val t  = ((a(lo) >>> j) ^ a(hi)) & m
        a(hi) ^= t
        a(lo) ^= t << j
        k = (k + j + 1) & ~j
      }
      j >>= 1
      m ^= m << j
    }
  }
}
