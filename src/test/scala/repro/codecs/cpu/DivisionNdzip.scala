package repro.codecs.cpu

/** The ndzip transforms and border test that divided per element, kept as
  * the oracle the span-block Lorenzo loops and [[NdzipCore.borderRuns]] must
  * match (see [[NdzipSpec]]).
  */
object DivisionNdzip {
  private def pow(b: Int, e: Int): Int = { var r = 1; var i = 0; while (i < e) { r *= b; i += 1 }; r }

  def forwardLorenzo(a: Array[Long], dims: Int, side: Int, w: Int): Unit = {
    val m = NdzipCore.mask(w)
    var d = 0
    while (d < dims) {
      val stride = pow(side, dims - 1 - d)
      var i = a.length - 1
      while (i >= 0) {
        if ((i / stride) % side > 0) a(i) = (a(i) - a(i - stride)) & m
        i -= 1
      }
      d += 1
    }
  }

  def inverseLorenzo(a: Array[Long], dims: Int, side: Int, w: Int): Unit = {
    val m = NdzipCore.mask(w)
    var d = dims - 1
    while (d >= 0) {
      val stride = pow(side, dims - 1 - d)
      var i = 0
      while (i < a.length) {
        if ((i / stride) % side > 0) a(i) = (a(i) + a(i - stride)) & m
        i += 1
      }
      d -= 1
    }
  }

  /** Is flat index `i` inside the tile-aligned region? */
  def inAligned(i: Int, g: NdzipCore.Geometry): Boolean = {
    var d = 0
    while (d < g.dims) {
      if ((i / g.strides(d)) % g.ext(d) >= g.aligned(d)) return false
      d += 1
    }
    true
  }

  /** The flat indices the codec stores verbatim, in the order it stores them. */
  def border(g: NdzipCore.Geometry): Seq[Int] =
    (0 until g.ext.product).filter(i => g.nTiles == 0 || !inAligned(i, g))
}
