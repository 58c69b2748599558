package repro.perfbench

import scala.collection.mutable

/** One timed interval at a layer boundary. `parent` is the id of the span
  * that was open when this one started (-1 at top level); spans of one
  * imputation query share `request`.
  */
final case class Span(id: Int, parent: Int, request: Long, name: String, startNs: Long, endNs: Long) {
  def ns: Long = endNs - startNs
}

/** In-memory span recorder used by the traced run. Spans are recorded
  * only from the benchmark's own code, around calls into the program's
  * public functions; the program itself is not instrumented. When
  * `enabled` is false `span` only runs its body.
  */
final class Tracer(val enabled: Boolean) {
  private val spans = mutable.ArrayBuffer.empty[Span]
  private var open  = List.empty[Int]
  private var nextRequest = 0L

  /** Starts a new request id for the spans that follow (one per query). */
  def newRequest(): Unit = nextRequest += 1

  def span[A](name: String)(body: => A): A =
    if (!enabled) body
    else {
      val id     = spans.size
      val parent = open.headOption.getOrElse(-1)
      spans += null // reserve the slot so children get later ids
      open = id :: open
      val start = System.nanoTime()
      try body
      finally {
        spans(id) = Span(id, parent, nextRequest, name, start, System.nanoTime())
        open = open.tail
      }
    }

  /** Durations in nanoseconds of every span with this name. */
  def durations(name: String): IndexedSeq[Long] = spans.iterator.filter(_.name == name).map(_.ns).toIndexedSeq

  /** Self time of each span: its duration minus the time its children cover. */
  def selfNs: Map[Int, Long] = {
    val child = mutable.Map.empty[Int, Long].withDefaultValue(0L)
    spans.foreach(s => if (s.parent >= 0) child(s.parent) += s.ns)
    spans.iterator.map(s => s.id -> (s.ns - child(s.id))).toMap
  }

  /** Writes every span as one JSON object per line. */
  def writeJsonLines(file: java.io.File): Unit = {
    file.getParentFile.mkdirs()
    val self = selfNs
    val out  = new java.io.PrintWriter(file, "UTF-8")
    try spans.foreach { s =>
      out.println(Json.obj(Seq("id" -> s.id, "parent" -> s.parent, "request" -> s.request,
        "name" -> s.name, "start_ns" -> s.startNs, "end_ns" -> s.endNs, "self_ns" -> self(s.id))))
    } finally out.close()
  }
}

/** Order statistics over a sample. Percentiles use the nearest-rank rule. */
object Stats {
  def percentile(xs: Seq[Double], q: Double): Double = {
    require(xs.nonEmpty, "percentile of an empty sample")
    val s = xs.sorted
    s(math.min(s.size - 1, math.max(0, math.ceil(q * s.size).toInt - 1)))
  }
  def median(xs: Seq[Double]): Double = percentile(xs, 0.5)
  def mean(xs: Seq[Double]): Double = { require(xs.nonEmpty, "mean of an empty sample"); xs.sum / xs.size }
}

/** JVM-wide counters read from the `java.lang.management` MXBeans. */
final case class JvmSnapshot(gcCount: Long, gcMs: Long, jitMs: Long) {
  def -(o: JvmSnapshot): JvmSnapshot = JvmSnapshot(gcCount - o.gcCount, gcMs - o.gcMs, jitMs - o.jitMs)
}
object JvmSnapshot {
  import java.lang.management.ManagementFactory
  import scala.jdk.CollectionConverters._
  def now(): JvmSnapshot = {
    val gcs = ManagementFactory.getGarbageCollectorMXBeans.asScala
    val jit = Option(ManagementFactory.getCompilationMXBean)
      .filter(_.isCompilationTimeMonitoringSupported).map(_.getTotalCompilationTime).getOrElse(0L)
    JvmSnapshot(gcs.map(g => math.max(0L, g.getCollectionCount)).sum,
                gcs.map(g => math.max(0L, g.getCollectionTime)).sum, jit)
  }
}

/** Minimal JSON rendering for the result line and the trace files. */
object Json {
  def str(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'  => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c    => b += c
    }
    (b += '"').toString
  }
  def value(v: Any): String = v match {
    case s: String  => str(s)
    case d: Double  => require(!d.isNaN && !d.isInfinite, s"non-finite JSON number $d"); d.toString
    case n: Int     => n.toString
    case n: Long    => n.toString
    case b: Boolean => b.toString
    case m: Seq[_]  => obj(m.asInstanceOf[Seq[(String, Any)]])
    case other      => str(other.toString)
  }
  def obj(fields: Seq[(String, Any)]): String =
    fields.map { case (k, v) => s"${str(k)}: ${value(v)}" }.mkString("{", ", ", "}")
}
