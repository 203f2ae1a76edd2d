//! The merge walk that finds what moved between two epochs of a map.

use std::collections::BTreeMap;

/// Calls `moved` with every key whose value differs between two maps,
/// or that only one of them holds, in key order: one merge walk.
pub fn diff_keys<K: Ord, V: PartialEq>(
    a: &BTreeMap<K, V>,
    b: &BTreeMap<K, V>,
    mut moved: impl FnMut(&K),
) {
    let (mut a, mut b) = (a.iter().peekable(), b.iter().peekable());
    while let Some(k) = [a.peek(), b.peek()]
        .into_iter()
        .flatten()
        .map(|e| e.0)
        .min()
    {
        let before = a.next_if(|e| e.0 == k).map(|e| e.1);
        let after = b.next_if(|e| e.0 == k).map(|e| e.1);
        if before != after {
            moved(k);
        }
    }
}
