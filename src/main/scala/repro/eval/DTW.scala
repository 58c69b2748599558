package repro.eval

import repro.geo.{Geo, LatLng}

/** Dynamic Time Warping accuracy metric (paper §4.1): both the imputed and
  * the original path are densified so consecutive positions are at most
  * 250 m apart, then aligned with classic DTW under the haversine ground
  * distance. We report the *normalized* DTW — alignment cost divided by
  * warping-path length — so the score is an average displacement in
  * meters, matching the magnitude of the paper's plots.
  */
object DTW {
  val DensifyM = 250.0

  /** Raw DTW alignment cost (sum of matched-pair distances, meters). */
  def cost(a: IndexedSeq[LatLng], b: IndexedSeq[LatLng]): Double = align(a, b)._1

  /** Normalized DTW in meters: cost / warping-path length. */
  def normalized(a: IndexedSeq[LatLng], b: IndexedSeq[LatLng]): Double = {
    val (c, steps) = align(a, b)
    if (steps == 0) 0.0 else c / steps
  }

  /** Densify both paths to 250 m then compute normalized DTW. */
  def pathErrorM(imputed: Seq[LatLng], original: Seq[LatLng]): Double =
    normalized(Geo.densify(imputed, DensifyM).toIndexedSeq,
               Geo.densify(original, DensifyM).toIndexedSeq)

  /** Classic DTW over two rolling rows of the (n+1)×(m+1) cost matrix:
    * alignment cost and warping-path length (matched pairs).
    */
  private[eval] def align(a: IndexedSeq[LatLng], b: IndexedSeq[LatLng]): (Double, Int) = {
    require(a.nonEmpty && b.nonEmpty, "DTW over empty path")
    val n = a.size; val m = b.size
    var prevCost = Array.fill(m + 1)(Double.PositiveInfinity)
    var prevLen  = new Array[Int](m + 1)
    var cost     = new Array[Double](m + 1)
    var len      = new Array[Int](m + 1)
    prevCost(0) = 0.0
    var i = 1
    while (i <= n) {
      val p = a(i - 1)
      cost(0) = Double.PositiveInfinity
      var j = 1
      while (j <= m) {
        val d  = Geo.haversineM(p, b(j - 1))
        val c1 = prevCost(j); val c2 = cost(j - 1); val c3 = prevCost(j - 1)
        if (c3 <= c1 && c3 <= c2) { cost(j) = d + c3; len(j) = prevLen(j - 1) + 1 }
        else if (c1 <= c2)        { cost(j) = d + c1; len(j) = prevLen(j) + 1 }
        else                      { cost(j) = d + c2; len(j) = len(j - 1) + 1 }
        j += 1
      }
      val tc = prevCost; prevCost = cost; cost = tc
      val tl = prevLen; prevLen = len; len = tl
      i += 1
    }
    (prevCost(m), prevLen(m))
  }
}
