package lemmaindex

// PostingLen reports the posting-list length for a token: the length of
// its run, uncapped by MaxPostingLen; 0 for what is not one indexed token.
func (ix *Index) PostingLen(token string) int {
	v := ix.vs.Vectorize(token)
	if len(v.Tokens) != 1 || v.Tokens[0].Text != token {
		return 0
	}
	id := v.Tokens[0].ID()
	return int(ix.postOff[id+1] - ix.postOff[id])
}
