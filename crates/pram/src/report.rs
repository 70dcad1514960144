//! Simulation results and scaling series.

/// One simulated run at a fixed core count.
#[derive(Debug, Clone, PartialEq)]
pub struct SimPoint {
    /// Number of simulated cores.
    pub cores: usize,
    /// Simulated elapsed cycles (the parallel makespan).
    pub elapsed_cycles: f64,
    /// Per-core busy cycles (length = cores).
    pub per_core_cycles: Vec<f64>,
}

impl SimPoint {
    /// Simulated elapsed seconds under the model clock.
    pub fn seconds(&self, ghz: f64) -> f64 {
        self.elapsed_cycles / (ghz * 1e9)
    }

    /// Parallel efficiency proxy: mean busy / max busy over cores
    /// (1.0 = perfectly balanced).
    pub fn balance(&self) -> f64 {
        let max = self.per_core_cycles.iter().cloned().fold(0.0, f64::max);
        if max == 0.0 {
            return 1.0;
        }
        let mean: f64 =
            self.per_core_cycles.iter().sum::<f64>() / self.per_core_cycles.len() as f64;
        mean / max
    }
}

/// A labeled scaling series: one point per core count.
#[derive(Debug, Clone, PartialEq)]
pub struct SimSeries {
    /// Series label (e.g. `"wait-free m=10M"`).
    pub label: String,
    /// Points in ascending core order.
    pub points: Vec<SimPoint>,
}

impl SimSeries {
    /// Creates an empty series.
    pub fn new(label: impl Into<String>) -> Self {
        Self {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Appends a point (must keep core counts ascending).
    pub fn push(&mut self, point: SimPoint) {
        if let Some(last) = self.points.last() {
            assert!(
                point.cores > last.cores,
                "points must be pushed in ascending core order"
            );
        }
        self.points.push(point);
    }

    /// Speedup of each point relative to the first (typically 1-core) point.
    pub fn speedups(&self) -> Vec<f64> {
        let Some(base) = self.points.first() else {
            return Vec::new();
        };
        self.points
            .iter()
            .map(|p| base.elapsed_cycles / p.elapsed_cycles)
            .collect()
    }

    /// Renders `cores,cycles,speedup` CSV lines (no header).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        for (p, s) in self.points.iter().zip(self.speedups()) {
            out.push_str(&format!("{},{:.0},{:.3}\n", p.cores, p.elapsed_cycles, s));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(cores: usize, elapsed: f64) -> SimPoint {
        SimPoint {
            cores,
            elapsed_cycles: elapsed,
            per_core_cycles: vec![elapsed; cores],
        }
    }

    #[test]
    fn speedups_are_relative_to_first_point() {
        let mut s = SimSeries::new("test");
        s.push(point(1, 1000.0));
        s.push(point(2, 500.0));
        s.push(point(4, 300.0));
        assert_eq!(s.speedups(), vec![1.0, 2.0, 1000.0 / 300.0]);
    }

    #[test]
    fn balance_metric() {
        let balanced = SimPoint {
            cores: 2,
            elapsed_cycles: 10.0,
            per_core_cycles: vec![10.0, 10.0],
        };
        assert_eq!(balanced.balance(), 1.0);
        let skewed = SimPoint {
            cores: 2,
            elapsed_cycles: 10.0,
            per_core_cycles: vec![10.0, 0.0],
        };
        assert_eq!(skewed.balance(), 0.5);
    }

    #[test]
    #[should_panic(expected = "ascending core order")]
    fn out_of_order_push_panics() {
        let mut s = SimSeries::new("bad");
        s.push(point(4, 100.0));
        s.push(point(2, 100.0));
    }

    #[test]
    fn csv_has_one_line_per_point() {
        let mut s = SimSeries::new("csv");
        s.push(point(1, 100.0));
        s.push(point(2, 50.0));
        let csv = s.to_csv();
        assert_eq!(csv.lines().count(), 2);
        assert!(csv.contains("2,50,2.000"));
    }
}
