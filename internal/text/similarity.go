package text

// jaroStackRunes is the token length up to which jaro keeps its match
// flags on the stack; longer tokens (no natural-language word is) fall
// back to the heap.
const jaroStackRunes = 64

// jaro is Jaro over decoded runes. It allocates nothing for tokens of up
// to jaroStackRunes runes, which is what lets SoftTFIDF compare a cell
// with every lemma of every pooled entity without touching the heap.
func jaro(ra, rb []rune) float64 {
	if len(ra) == 0 && len(rb) == 0 {
		return 1
	}
	if len(ra) == 0 || len(rb) == 0 {
		return 0
	}
	window := len(ra)
	if len(rb) > window {
		window = len(rb)
	}
	window = window/2 - 1
	if window < 0 {
		window = 0
	}
	var stackA, stackB [jaroStackRunes]bool
	matchA, matchB := stackA[:], stackB[:]
	if len(ra) > jaroStackRunes || len(rb) > jaroStackRunes {
		matchA, matchB = make([]bool, len(ra)), make([]bool, len(rb))
	}
	matches := 0
	for i := range ra {
		lo := i - window
		if lo < 0 {
			lo = 0
		}
		hi := i + window + 1
		if hi > len(rb) {
			hi = len(rb)
		}
		for j := lo; j < hi; j++ {
			if matchB[j] || ra[i] != rb[j] {
				continue
			}
			matchA[i] = true
			matchB[j] = true
			matches++
			break
		}
	}
	if matches == 0 {
		return 0
	}
	transpositions := 0
	j := 0
	for i := range ra {
		if !matchA[i] {
			continue
		}
		for !matchB[j] {
			j++
		}
		if ra[i] != rb[j] {
			transpositions++
		}
		j++
	}
	m := float64(matches)
	return (m/float64(len(ra)) + m/float64(len(rb)) + (m-float64(transpositions)/2)/m) / 3
}

func jaroWinkler(ra, rb []rune) float64 {
	j := jaro(ra, rb)
	return j + float64(commonPrefix(ra, rb))*0.1*(1-j)
}

// commonPrefix is the length of the common prefix of ra and rb that
// JaroWinkler rewards: at most 4 runes.
func commonPrefix(ra, rb []rune) int {
	prefix := 0
	for prefix < len(ra) && prefix < len(rb) && prefix < 4 && ra[prefix] == rb[prefix] {
		prefix++
	}
	return prefix
}
