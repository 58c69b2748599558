package repro.perfbench

import repro.geo.LatLng
import scala.collection.mutable

/** Correctness gates. A failed gate makes the run incorrect; it is never
  * dropped as an outlier. Failures are collected so that one run reports
  * every kind of failure it saw.
  */
object Gates {
  private val failures = mutable.LinkedHashMap.empty[String, Int]

  def check(ok: Boolean, what: => String): Unit =
    if (!ok) synchronized { val k = what; failures(k) = failures.getOrElse(k, 0) + 1 }

  def failed: Seq[(String, Int)] = synchronized(failures.toSeq)

  def finite(p: LatLng): Boolean =
    !p.lat.isNaN && !p.lon.isNaN && !p.lat.isInfinite && !p.lon.isInfinite

  /** An imputed path must start at `from`, end at `to`, and hold only
    * finite coordinates.
    */
  def path(method: String, from: LatLng, to: LatLng, p: Seq[LatLng]): Unit = {
    check(p.nonEmpty && p.head == from && p.last == to, s"$method path does not run from the gap's start to its end")
    check(p.forall(finite), s"$method path has a non-finite coordinate")
  }
}
