//! Path generation for simulator traffic.

/// The e-cube (dimension-order) path from `a` to `b`: correct differing
/// bits from the lowest dimension upward — the deadlock-free oblivious
/// routing used by real hypercube machines.
pub fn ecube_path(a: u64, b: u64) -> Vec<u64> {
    let mut path = Vec::with_capacity((a ^ b).count_ones() as usize + 1);
    let mut cur = a;
    path.push(cur);
    let mut diff = a ^ b;
    while diff != 0 {
        let bit = diff & diff.wrapping_neg();
        cur ^= bit;
        diff ^= bit;
        path.push(cur);
    }
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubemesh_topology::hamming;

    #[test]
    fn ecube_is_shortest_and_ordered() {
        for a in 0..16u64 {
            for b in 0..16u64 {
                let p = ecube_path(a, b);
                assert_eq!(u32::try_from(p.len()).unwrap(), hamming(a, b) + 1);
                assert_eq!(p[0], a);
                assert_eq!(*p.last().unwrap(), b);
                // Bits corrected in ascending order.
                let mut last_bit = 0;
                for w in p.windows(2) {
                    let bit = (w[0] ^ w[1]).trailing_zeros();
                    assert!(bit >= last_bit);
                    last_bit = bit;
                }
            }
        }
    }
}
