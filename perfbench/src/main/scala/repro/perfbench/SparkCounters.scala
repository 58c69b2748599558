package repro.perfbench

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import scala.collection.mutable

/** Spark work attributed to the enclosing build-path span, observed from
  * outside the program through a listener of the benchmark's own. The
  * calling thread tags each span's jobs with a local property; the
  * listener maps jobs and stages back to that tag.
  */
final class SparkCounters(sc: SparkContext) extends SparkListener {
  import SparkCounters._

  private final class Tally { var jobs = 0L; var stages = 0L; var tasks = 0L; var shuffleBytes = 0L }

  private val tallies    = mutable.Map.empty[String, Tally]
  private val stageOwner = mutable.Map.empty[Int, String]
  private val barrierSeen = new java.util.concurrent.atomic.AtomicLong(0L)

  private def tally(owner: String): Tally = tallies.getOrElseUpdate(owner, new Tally)
  private def owner(props: java.util.Properties): Option[String] =
    Option(props).flatMap(p => Option(p.getProperty(SpanKey)))

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    owner(e.properties).foreach { o =>
      if (o.startsWith(BarrierPrefix)) barrierSeen.set(o.stripPrefix(BarrierPrefix).toLong)
      else {
        tally(o).jobs += 1
        e.stageIds.foreach(stageOwner(_) = o)
      }
    }
  }
  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    stageOwner.get(e.stageInfo.stageId).foreach(o => tally(o).stages += 1)
  }
  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    stageOwner.get(e.stageId).foreach { o =>
      val t = tally(o)
      t.tasks += 1
      if (e.taskMetrics != null) t.shuffleBytes += e.taskMetrics.shuffleWriteMetrics.bytesWritten
    }
  }

  /** Runs `body` with its Spark jobs attributed to `name`. */
  def attribute[A](name: String)(body: => A): A = {
    val prev = sc.getLocalProperty(SpanKey)
    sc.setLocalProperty(SpanKey, name)
    try body finally sc.setLocalProperty(SpanKey, prev)
  }

  /** Waits until the listener has seen every event posted so far: runs a
    * one-task job and waits for its start event, which the listener bus
    * delivers after all earlier events.
    */
  def drain(): Unit = {
    val mark = barrierSeen.get() + 1
    attribute(BarrierPrefix + mark)(sc.parallelize(Seq(1), 1).count())
    val deadline = System.nanoTime() + 30L * 1000000000L
    while (barrierSeen.get() < mark) {
      require(System.nanoTime() < deadline, "Spark listener bus did not drain within 30 s")
      Thread.sleep(5)
    }
  }

  /** Counters of every span name recorded so far, after draining. */
  def snapshot(): Map[String, SparkTally] = {
    drain()
    synchronized(tallies.map { case (k, t) => k -> SparkTally(t.jobs, t.stages, t.tasks, t.shuffleBytes) }.toMap)
  }
}

/** Spark work of one span name: jobs, stages run, tasks, shuffle bytes written. */
final case class SparkTally(jobs: Long, stages: Long, tasks: Long, shuffleBytes: Long)

object SparkCounters {
  val SpanKey       = "perfbench.span"
  val BarrierPrefix = "perfbench.barrier."

  def register(sc: SparkContext): SparkCounters = {
    val c = new SparkCounters(sc)
    sc.addSparkListener(c)
    c
  }
}
