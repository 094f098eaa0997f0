package lemmaindex

// PostingLen reports the posting-list length for a token.
func (ix *Index) PostingLen(token string) int { return len(ix.entityPostings[token]) }
