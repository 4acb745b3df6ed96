//! Small statistics helpers for benchmark summaries.

/// Arithmetic mean. Panics on an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "mean of empty sample");
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Sample standard deviation (n-1 denominator); 0 for fewer than 2 points.
pub fn stddev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    let var = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64;
    var.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basics() {
        assert_eq!(mean(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(mean(&[5.0]), 5.0);
    }

    #[test]
    fn stddev_known_value() {
        // Sample std of [2,4,4,4,5,5,7,9] with n-1 = 2.138...
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((stddev(&xs) - 2.1380899).abs() < 1e-6);
        assert_eq!(stddev(&[1.0]), 0.0);
    }
}
