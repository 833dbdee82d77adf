(** WLS5 — the weighted-least-squares technique of Hashimoto, Yamada
    and Onodera (TCAD'04), Section 2.4 of the paper.

    Minimizes sum_k (rho(t_k) * (v_noisy(t_k) - (a t_k + b)))^2 where
    rho is the noiseless sensitivity and the samples live in the
    *noiseless* critical region. Noise outside that region is filtered
    away — the weakness SGDP fixes. *)

val wls5 : Technique.t
