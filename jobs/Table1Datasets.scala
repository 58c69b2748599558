package repro.jobs

import repro.exp.{Prep, Tables}

/** spark-submit entrypoint reproducing Table 1 (dataset characteristics).
  * Usage: Table1Datasets [danTrips kielTrips sarTrips sarShips]
  */
object Table1Datasets {
  def main(args: Array[String]): Unit = {
    val spark = Prep.session("table1-datasets")
    val danN  = args.lift(0).map(_.toInt).getOrElse(160)
    val kielN = args.lift(1).map(_.toInt).getOrElse(60)
    val sarN  = args.lift(2).map(_.toInt).getOrElse(400)
    val sarS  = args.lift(3).map(_.toInt).getOrElse(120)
    Tables.printTable1(Tables.table1(
      Seq(Prep.dan(spark, danN), Prep.kiel(spark, kielN), Prep.sar(spark, sarN, sarS))))
    spark.stop()
  }
}
