// Package nearest implements the "did you mean" suggestion shared by
// every layer that resolves user-supplied names — CLI flags, workload
// names, setup names, size classes and hardware-profile names. Keeping
// the edit-distance logic in one dependency-free package guarantees the
// suggestions behave identically everywhere.
package nearest

// Distance returns the Levenshtein edit distance between a and b.
func Distance(a, b string) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

// Best returns the candidate with the smallest edit distance to name,
// provided that distance is at most maxDist; otherwise "". A non-empty
// name that is a strict prefix of a candidate (a truncated
// "v100-16g" for "v100-16g-pcie3") always qualifies, whatever its
// distance — the distance of a prefix pair is the length difference,
// which for long structured names easily exceeds any sane typo cutoff.
// Ties keep the earliest candidate, so callers that pass candidates in
// presentation order get stable suggestions.
func Best(name string, candidates []string, maxDist int) string {
	best, bestDist := "", maxDist+1
	for _, c := range candidates {
		if len(name)-len(c) > maxDist {
			continue // the distance is at least the length difference
		}
		d := Distance(name, c)
		if name != "" && len(name) < len(c) && c[:len(name)] == name && d > maxDist {
			d = maxDist
		}
		if d < bestDist {
			best, bestDist = c, d
		}
	}
	return best
}

// Hint formats Best's result as the parenthetical suffix the CLI error
// messages append: ` (did you mean "gemm"?)`, or "" when no candidate is
// close enough.
func Hint(name string, candidates []string, maxDist int) string {
	if best := Best(name, candidates, maxDist); best != "" {
		return " (did you mean \"" + best + "\"?)"
	}
	return ""
}
